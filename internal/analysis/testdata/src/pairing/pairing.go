// Package pairing is the golden fixture for the lock and goroutine
// pairing analyzer: mutex lock/unlock windows and WaitGroup.Add
// placement.
package pairing

import "sync"

// counter guards a value with a mutex.
type counter struct {
	mu sync.Mutex
	n  int
}

// lockedReturn exits while holding the lock: the return sits between
// Lock and the lexically next Unlock.
func (c *counter) lockedReturn(limit int) int {
	c.mu.Lock()
	if c.n > limit {
		return c.n // want `return while c\.mu is locked`
	}
	c.n++
	c.mu.Unlock()
	return 0
}

// lockedForever never unlocks at all.
func (c *counter) lockedForever() {
	c.mu.Lock() // want `c\.mu\.Lock has no deferred or paired Unlock`
	c.n++
}

// deferred is the sanctioned shape: defer pairs the unlock with every
// return path.
func (c *counter) deferred(limit int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n > limit {
		return c.n
	}
	c.n++
	return 0
}

// manualPaired unlocks before each return: legal without defer.
func (c *counter) manualPaired(limit int) int {
	c.mu.Lock()
	if c.n > limit {
		c.mu.Unlock()
		return c.n
	}
	c.n++
	c.mu.Unlock()
	return 0
}

// deferredClosure unlocks inside a deferred closure: also a valid pair.
func (c *counter) deferredClosure() {
	c.mu.Lock()
	defer func() {
		c.n++
		c.mu.Unlock()
	}()
	c.n++
}

// rwGuard pairs RLock with RUnlock, not Unlock.
type rwGuard struct {
	mu sync.RWMutex
	n  int
}

// readLockedReturn exits between RLock and RUnlock.
func (g *rwGuard) readLockedReturn(limit int) int {
	g.mu.RLock()
	if g.n > limit {
		return g.n // want `return while g\.mu is locked`
	}
	g.mu.RUnlock()
	return 0
}

// addInGoroutine increments the WaitGroup inside the goroutine the
// counter is waiting for: Wait can observe zero before the goroutine
// runs.
func addInGoroutine() {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1) // want `WaitGroup\.Add inside the goroutine being waited for races Wait`
		defer wg.Done()
	}()
	wg.Wait()
}

// addBeforeGoroutine is the sanctioned shape: Add before go.
func addBeforeGoroutine() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var inner sync.WaitGroup
		inner.Add(1) // the goroutine's own WaitGroup: not a race with the outer Wait
		inner.Done()
		inner.Wait()
	}()
	wg.Wait()
}
