package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"sita/internal/dist"
	"sita/internal/memo"
	"sita/internal/queueing"
	"sita/internal/trace"
)

// sameBits reports whether two cutoff lists are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCutoffMemoMatchesSearch pins the cutoff memo to the searches it
// stands in for: on every profile and at several loads, DeriveCutoff and
// NewDesignFull return, on a miss and on the hit that follows, exactly
// the bits an uncached search computes. At 2 hosts the two share memo
// entries, so each must equal the other's search.
func TestCutoffMemoMatchesSearch(t *testing.T) {
	for _, p := range []trace.Profile{trace.C90(), trace.J90(), trace.CTC()} {
		size := p.MustSizeDist()
		for _, load := range []float64{0.3, 0.5, 0.7, 0.9} {
			lambda2 := 2 * load / size.Moment(1)
			for _, v := range Variants() {
				want, err := deriveCutoff(v, lambda2, size)
				if err != nil {
					t.Fatalf("%s %v load %v: %v", p.Name, v, load, err)
				}
				for call := 0; call < 2; call++ {
					got, err := DeriveCutoff(v, lambda2, size)
					if err != nil || math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s %v load %v call %d: DeriveCutoff = %x, %v; search = %x",
							p.Name, v, load, call, got, err, want)
					}
				}
			}
			for _, hosts := range []int{2, 4} {
				lambda := float64(hosts) * load / size.Moment(1)
				searches := map[Variant]func() ([]float64, error){
					SITAE:     func() ([]float64, error) { return queueing.EqualLoadCutoffs(size, hosts) },
					SITAUOpt:  func() ([]float64, error) { return queueing.OptimalCutoffs(lambda, size, hosts) },
					SITAUFair: func() ([]float64, error) { return queueing.FairCutoffs(lambda, size, hosts) },
				}
				for v, search := range searches {
					want, err := search()
					if err != nil {
						t.Fatalf("%s %v load %v h=%d: %v", p.Name, v, load, hosts, err)
					}
					for call := 0; call < 2; call++ {
						d, err := NewDesignFull(v, load, size, hosts)
						if err != nil || !sameBits(d.Cutoffs, want) {
							t.Errorf("%s %v load %v h=%d call %d: NewDesignFull = %+v, %v; search = %v",
								p.Name, v, load, hosts, call, d, err, want)
						}
					}
				}
			}
		}
	}
}

// TestCutoffMemoConcurrentCallers checks the memo under concurrent
// callers of one fresh key: one search runs and every caller receives
// its value. Run with -race.
func TestCutoffMemoConcurrentCallers(t *testing.T) {
	saved := cutoffMemo
	cutoffMemo = memo.New[cutoffKey, []float64](4096, nil)
	t.Cleanup(func() { cutoffMemo = saved })
	size := c90Size(t)
	const load, callers = 0.6, 8
	designs := make([]*Design, callers)
	var wg sync.WaitGroup
	for i := range designs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := NewDesign(SITAUFair, load, size, 2)
			if err != nil {
				t.Error(err)
				return
			}
			designs[i] = d
		}()
	}
	wg.Wait()
	if st := cutoffMemo.Stats(); st.Misses != 1 || st.Hits+st.Joins != callers-1 {
		t.Errorf("%d concurrent callers: %+v, want 1 search", callers, st)
	}
	for _, d := range designs[1:] {
		if d == nil || designs[0] == nil || math.Float64bits(d.Cutoff) != math.Float64bits(designs[0].Cutoff) {
			t.Fatalf("callers received different cutoffs")
		}
	}
}

// TestClearCutoffMemoSearchesAgain checks that after ClearCutoffMemo the
// next request for a cutoff searches again and finds the same value.
func TestClearCutoffMemoSearchesAgain(t *testing.T) {
	saved := cutoffMemo
	cutoffMemo = memo.New[cutoffKey, []float64](4096, nil)
	t.Cleanup(func() { cutoffMemo = saved })
	size := c90Size(t)
	var cuts []float64
	for call := 0; call < 3; call++ {
		if call == 2 {
			ClearCutoffMemo()
		}
		d, err := NewDesign(SITAUOpt, 0.6, size, 2)
		if err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, d.Cutoff)
	}
	if st := cutoffMemo.Stats(); st.Misses != 2 || st.Hits != 1 {
		t.Errorf("search, hit, clear, search: %+v, want 2 searches and 1 hit", st)
	}
	if math.Float64bits(cuts[2]) != math.Float64bits(cuts[0]) {
		t.Errorf("the search after ClearCutoffMemo found %v, the first %v", cuts[2], cuts[0])
	}
}

// TestCutoffMemoKeysOnlyValues checks that sizes the key cannot hold
// compute directly and leave the memo untouched.
func TestCutoffMemoKeysOnlyValues(t *testing.T) {
	before := cutoffMemo.Stats()
	size := dist.NewExponential(100)
	lambda := 2 * 0.7 / size.Moment(1)
	for call := 0; call < 2; call++ {
		if _, err := DeriveCutoff(SITAE, lambda, size); err != nil {
			t.Fatal(err)
		}
	}
	if after := cutoffMemo.Stats(); after != before {
		t.Errorf("an exponential size entered the memo: %+v, then %+v", before, after)
	}
}

// TestNewDesignRejectsNonFiniteLoad covers NaN and ±Inf loads for every
// variant and both constructors. A NaN load once slipped past the range
// check and produced designs predicting +Inf slowdown.
func TestNewDesignRejectsNonFiniteLoad(t *testing.T) {
	size := c90Size(t)
	for _, load := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, v := range Variants() {
			if d, err := NewDesign(v, load, size, 2); err == nil || !strings.Contains(err.Error(), "outside (0, 1)") {
				t.Errorf("NewDesign(%v, %v): design %+v, error %v", v, load, d, err)
			}
			if d, err := NewDesignFull(v, load, size, 4); err == nil || !strings.Contains(err.Error(), "outside (0, 1)") {
				t.Errorf("NewDesignFull(%v, %v): design %+v, error %v", v, load, d, err)
			}
		}
	}
}
