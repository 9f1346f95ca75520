package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sita/internal/catalog"
)

// postSim fires one POST /v1/simulate and returns status, X-Cache and body.
func postSim(t *testing.T, url, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/simulate: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), b
}

// TestConcurrentIdenticalRequests is the cache contract end to end:
// concurrent identical requests produce byte-identical bodies and exactly
// one simulation runs.
func TestConcurrentIdenticalRequests(t *testing.T) {
	svc := New(Config{MaxConcurrent: 4})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const n = 8
	req := `{"policy":"lwl","hosts":2,"load":0.7,"jobs":5000}`
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, body := postSim(t, ts.URL, req)
			codes[i], bodies[i] = code, body
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if sims, _, _ := svc.metrics.snapshot(); sims != 1 {
		t.Fatalf("ran %d simulations for %d identical requests, want exactly 1", sims, n)
	}
	cs := svc.cache.Stats()
	if cs.Misses != 1 || cs.Hits+cs.Joins != n-1 {
		t.Fatalf("cache stats %+v: want 1 miss and %d hits+joins", cs, n-1)
	}

	// A later identical request is a plain hit with the same bytes.
	code, cache, body := postSim(t, ts.URL, req)
	if code != http.StatusOK || cache != "hit" || !bytes.Equal(body, bodies[0]) {
		t.Fatalf("follow-up: status %d cache %q, body match %v", code, cache, bytes.Equal(body, bodies[0]))
	}
}

// TestDeadlineReturns503 checks the cancellation contract: a request whose
// deadline expires mid-simulation gets 503, releases its engine and slot,
// and the same simulation succeeds afterwards.
func TestDeadlineReturns503(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Full-profile sim (55k jobs) with a 1ms budget: the cancel probe
	// fires within its first few polls. Shortest-Queue reads job counts,
	// so it runs on the engine, which installs the probe; direct-eligible
	// policies (LWL among them) finish without one.
	code, _, body := postSim(t, ts.URL, `{"policy":"shortest-queue","load":0.9,"timeout_ms":1}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("deadline request: status %d, body %s, want 503", code, body)
	}
	if _, _, deadlines := svc.metrics.snapshot(); deadlines == 0 {
		t.Fatal("deadline metric not incremented")
	}
	if got := svc.inflight.Load(); got != 0 {
		t.Fatalf("inflight %d after deadline response, want 0", got)
	}
	if got := svc.queued.Load(); got != 0 {
		t.Fatalf("queued %d after deadline response, want 0", got)
	}

	// The error was not cached and no slot leaked: the identical
	// simulation (same cache key — timeout_ms is excluded) now succeeds.
	code, cache, body := postSim(t, ts.URL, `{"policy":"shortest-queue","load":0.9}`)
	if code != http.StatusOK {
		t.Fatalf("retry after deadline: status %d, body %s", code, body)
	}
	if cache != "miss" {
		t.Fatalf("retry after deadline was a cache %q, want miss (errors must not be cached)", cache)
	}
}

// TestDeadlineReturns503OnDirectPath checks that a direct-eligible policy
// honors its deadline as an engine run does: Least-Work-Left takes the
// direct recurrence, whose first phase polls the probe once per
// sim.InterruptEvery jobs. The hook outlasts the 1 ms budget, so the
// full-profile trace's first poll already sees the deadline; the 503 is
// not cached, and the same simulation succeeds afterwards.
func TestDeadlineReturns503OnDirectPath(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	svc.testHookAdmitted = func() { time.Sleep(10 * time.Millisecond) }
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	code, _, body := postSim(t, ts.URL, `{"policy":"lwl","load":0.9,"timeout_ms":1}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("deadline request: status %d, body %s, want 503", code, body)
	}
	if _, _, deadlines := svc.metrics.snapshot(); deadlines != 1 {
		t.Fatalf("deadline metric reads %d, want 1", deadlines)
	}
	code, cache, body := postSim(t, ts.URL, `{"policy":"lwl","load":0.9}`)
	if code != http.StatusOK || cache != "miss" {
		t.Fatalf("retry after deadline: status %d cache %q, body %s; want 200 and a miss", code, cache, body)
	}
}

// TestBackpressure429 checks admission control: with one slot and no
// queue, a second distinct request is refused with 429 + Retry-After.
func TestBackpressure429(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1, MaxQueue: -1})
	gate := make(chan struct{})
	admitted := make(chan struct{}, 16)
	svc.testHookAdmitted = func() {
		admitted <- struct{}{}
		<-gate // hold the slot until the test releases it
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	slow := make(chan struct{})
	go func() {
		defer close(slow)
		code, _, body := postSim(t, ts.URL, `{"policy":"lwl","load":0.9,"seed":11,"jobs":2000}`)
		if code != http.StatusOK {
			t.Errorf("slow request: status %d, body %s", code, body)
		}
	}()
	<-admitted // the slow request now holds the only slot

	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
		strings.NewReader(`{"policy":"random","load":0.5,"seed":12}`))
	if err != nil {
		t.Fatalf("overflow request: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if _, rejected, _ := svc.metrics.snapshot(); rejected == 0 {
		t.Fatal("rejected metric not incremented")
	}
	close(gate)
	<-slow
}

// TestShutdownDrains checks the drain contract: every admitted request
// completes with 200, new requests are refused, and Shutdown returns.
func TestShutdownDrains(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2, MaxQueue: 8})
	gate := make(chan struct{})
	admitted := make(chan struct{}, 16)
	svc.testHookAdmitted = func() {
		admitted <- struct{}{}
		<-gate // hold the slot until the test releases it
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const n = 3 // 2 running + 1 queued when the drain starts
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"policy":"lwl","load":0.9,"seed":%d}`, 100+i)
			codes[i], _, _ = postSim(t, ts.URL, body)
		}(i)
	}
	// Two requests hold the slots; wait until the third is tracked in the
	// queue, then begin the drain with all three in flight.
	<-admitted
	<-admitted
	deadline := time.Now().Add(5 * time.Second)
	for svc.inflight.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests in flight", svc.inflight.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- svc.Shutdown(ctx) }()

	// New work is refused while draining.
	refusedDeadline := time.Now().Add(5 * time.Second)
	for {
		code, _, _ := postSim(t, ts.URL, `{"policy":"random","load":0.5,"seed":999}`)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(refusedDeadline) {
			t.Fatalf("draining server still accepts new requests (last status %d)", code)
		}
		time.Sleep(time.Millisecond)
	}

	close(gate) // release the held slots; every admitted request completes
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted request %d finished with status %d, want 200", i, code)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestHandlerPanicReleasesInflight checks that a handler panic, which
// net/http recovers by dropping the connection, still releases the
// request: the in-flight gauge returns to 0 and a drain finishes at once.
func TestHandlerPanicReleasesInflight(t *testing.T) {
	svc := New(Config{})
	svc.testHookAdmitted = func() { panic("handler panic under test") }
	ts := httptest.NewUnstartedServer(svc.Handler())
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the recovered panic's stack
	ts.Start()
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
		strings.NewReader(`{"policy":"random","jobs":2000}`))
	if err == nil {
		resp.Body.Close()
		t.Fatalf("panicking handler answered with status %d, want a dropped connection", resp.StatusCode)
	}
	if got := svc.inflight.Load(); got != 0 {
		t.Fatalf("simd_inflight_requests reads %d after the panic, want 0", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after a handler panic: %v", err)
	}
}

// TestMetricsAndHealth checks the observability surface end to end.
func TestMetricsAndHealth(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	if code, _, body := postSim(t, ts.URL, `{"policy":"round-robin","jobs":2000}`); code != http.StatusOK {
		t.Fatalf("simulate: status %d body %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v status %d", err, resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The request counter is recorded just after the response is written,
	// so poll briefly instead of racing the middleware.
	wants := []string{
		`simd_requests_total{endpoint="/v1/simulate",code="200"} 1`,
		"simd_simulations_total 1",
		"simd_cache_misses_total 1",
		"simd_request_seconds_count",
		"simd_engine_acquires_total",
		"simd_streamcache_generations_total",
		"simd_streamcache_bytes",
		"simd_queue_depth 0",
	}
	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		metrics := scrape()
		missing := ""
		for _, want := range wants {
			if !strings.Contains(metrics, want) {
				missing = want
				break
			}
		}
		if missing == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics output missing %q:\n%s", missing, metrics)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdvise checks GET /v1/advise: a valid recommendation, caching, and
// parameter validation naming the valid values.
func TestAdvise(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	get := func(q string) (int, string, []byte) {
		resp, err := http.Get(ts.URL + "/v1/advise" + q)
		if err != nil {
			t.Fatalf("GET /v1/advise%s: %v", q, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("X-Cache"), b
	}

	code, cache, body := get("?profile=psc-c90&load=0.7&hosts=2")
	if code != http.StatusOK || cache != "miss" {
		t.Fatalf("advise: status %d cache %q body %s", code, cache, body)
	}
	var adv AdviseResponse
	if err := json.Unmarshal(body, &adv); err != nil {
		t.Fatalf("advise unmarshal: %v", err)
	}
	if adv.Recommended != "SITA-U-fair" && adv.Recommended != "SITA-U-opt" {
		t.Fatalf("recommended %q, want a SITA-U variant", adv.Recommended)
	}
	if len(adv.Variants) != 4 {
		t.Fatalf("%d variants, want 4", len(adv.Variants))
	}

	code2, cache2, body2 := get("?profile=psc-c90&load=0.7&hosts=2")
	if code2 != http.StatusOK || cache2 != "hit" || !bytes.Equal(body, body2) {
		t.Fatalf("repeat advise: status %d cache %q identical=%v", code2, cache2, bytes.Equal(body, body2))
	}

	// Near load 1 the rule-of-thumb split is unstable: the variant
	// carries the error and the response stays valid JSON.
	code, _, body = get("?load=0.999999999")
	if code != http.StatusOK {
		t.Fatalf("advise near load 1: status %d body %s", code, body)
	}
	adv = AdviseResponse{}
	if err := json.Unmarshal(body, &adv); err != nil {
		t.Fatalf("advise near load 1 unmarshal: %v", err)
	}
	rule := -1
	for i, v := range adv.Variants {
		if v.Variant == "SITA-U-rule" {
			rule = i
		}
	}
	if rule < 0 || !strings.Contains(adv.Variants[rule].Error, "no feasible cutoff") {
		t.Fatalf("SITA-U-rule near load 1 should carry the infeasibility: %s", body)
	}

	code, _, body = get("?load=1.5")
	if code != http.StatusBadRequest || !strings.Contains(string(body), "(0,1)") {
		t.Fatalf("bad load: status %d body %s", code, body)
	}
	code, _, body = get("?profile=nope")
	if code != http.StatusBadRequest || !strings.Contains(string(body), "psc-c90") {
		t.Fatalf("bad profile should name valid values: status %d body %s", code, body)
	}
}

// TestAdviseLeavesWorkloadMemo checks that advice reads the profile's
// size distribution and generates no trace: an advise request naming a
// seed no simulation has used adds nothing to the workload memo.
func TestAdviseLeavesWorkloadMemo(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/advise?profile=psc-j90&load=0.7&seed=987654")
	if err != nil {
		t.Fatalf("GET /v1/advise: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advise: status %d, want 200", resp.StatusCode)
	}
	if st := svc.workloads.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("advise touched the workload memo: %+v", st)
	}
}

// TestValidation checks the request contract rejections.
func TestValidation(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cases := []struct {
		body string
		want string
	}{
		{`{"load":0.7}`, "policy is required"},
		{`{"policy":"nope"}`, "unknown policy"},
		{`{"policy":"lwl","load":1.2}`, "(0,1)"},
		{`{"policy":"lwl","warmup":0.99999,"load":0.5,"wrmup":1}`, "unknown field"},
		{`{"policy":"lwl","hosts":-1}`, "hosts must be >= 1"},
		{`{"policy":"lwl","jobs":-5}`, "jobs must be >= 0"},
		{`{"policy":"lwl","profile":"bogus"}`, "unknown profile"},
	}
	for _, tc := range cases {
		code, _, body := postSim(t, ts.URL, tc.body)
		if code != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: status %d body %s, want 400 mentioning %q", tc.body, code, body, tc.want)
		}
	}
}

// TestPullPolicyRejectedOnPS checks that simd answers a pull policy on
// processor-sharing hosts with a 400 that says why, under every spelling,
// instead of crashing the handler; the same policy on FCFS hosts, and a
// push policy on PS hosts, still simulate.
func TestPullPolicyRejectedOnPS(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, name := range []string{"central-queue", "CQ"} {
		body := fmt.Sprintf(`{"policy":%q,"ps":true,"jobs":2000}`, name)
		if code, _, b := postSim(t, ts.URL, body); code != http.StatusBadRequest || !strings.Contains(string(b), "processor-sharing") {
			t.Errorf("%s: status %d body %s, want 400 naming processor-sharing", body, code, b)
		}
	}
	for _, body := range []string{`{"policy":"cq","jobs":2000}`, `{"policy":"lwl","ps":true,"jobs":2000}`} {
		if code, _, b := postSim(t, ts.URL, body); code != http.StatusOK {
			t.Errorf("%s: status %d body %s, want 200", body, code, b)
		}
	}
}

// TestHostsCapped checks that both endpoints reject a host count above
// catalog.MaxHosts before building a server: each host costs memory
// before the first job runs, so an unbounded count is a cheap way to
// exhaust the process.
func TestHostsCapped(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	want := fmt.Sprintf("hosts must be <= %d", catalog.MaxHosts)
	body := fmt.Sprintf(`{"policy":"lwl","hosts":%d,"load":0.7,"jobs":10}`, catalog.MaxHosts+1)
	if code, _, b := postSim(t, ts.URL, body); code != http.StatusBadRequest || !strings.Contains(string(b), want) {
		t.Errorf("simulate: status %d body %s, want 400 mentioning %q", code, b, want)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/advise?load=0.7&hosts=%d", ts.URL, catalog.MaxHosts+1))
	if err != nil {
		t.Fatalf("GET /v1/advise: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), want) {
		t.Errorf("advise: status %d body %s, want 400 mentioning %q", resp.StatusCode, b, want)
	}
}

// TestFairnessFieldsNeedBothClasses checks that the fairness audit is
// omitted, not reported as a zero slowdown and a "perfectly fair" spread,
// when a run saw no long jobs; a run with both classes carries all three
// fields.
func TestFairnessFieldsNeedBothClasses(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		body string
		want bool
	}{
		{`{"policy":"sita-u-fair","hosts":8,"load":0.7,"jobs":10}`, false},
		{`{"policy":"sita-u-fair","hosts":2,"load":0.7,"jobs":5000}`, true},
	} {
		code, _, body := postSim(t, ts.URL, tc.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d body %s", tc.body, code, body)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		for _, key := range []string{"short_slowdown", "long_slowdown", "fairness_spread"} {
			if _, ok := fields[key]; ok != tc.want {
				t.Errorf("%s: field %s present = %v, want %v; body %s", tc.body, key, ok, tc.want, body)
			}
		}
	}
}

// TestCacheEviction checks the LRU byte bound directly.
func TestCacheEviction(t *testing.T) {
	c := NewCache(100)
	put := func(key string, n int) {
		c.Do(key, func() ([]byte, error) { return make([]byte, n), nil })
	}
	put("a", 40)
	put("b", 40)
	put("c", 40) // evicts a
	if _, status, _ := c.Do("a", func() ([]byte, error) { return []byte("x"), nil }); status != CacheMiss {
		t.Fatalf("a should have been evicted, got %v", status)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	if st.Bytes > 100 {
		t.Fatalf("cache holds %d bytes, bound is 100", st.Bytes)
	}
}
