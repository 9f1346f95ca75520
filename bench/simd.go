package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"sita/internal/catalog"
	"sita/internal/service"
	"sita/internal/sim"
)

// The simd workloads ask, for each catalog policy, the request the service
// answers with its defaults (two hosts, load 0.7, psc-c90 at its full
// length), from one client that waits for each answer before it sends the
// next, as a user asking capacity-planning questions does. simd-hit asks
// for the keys warmed during set-up, so every answer comes from the
// response cache. simd-miss asks each time for a seed no request used
// before, so every answer generates a trace, misses the workload memo and
// the stream cache, and simulates. Neither class is mixed into the other,
// so no figure depends on an assumed share of hits.
//
// A traced repetition then climbs a capacity ladder: the same class of
// requests, open loop with Poisson arrivals at multiples of the rate the
// single client reached, over at most simdConns connections. A step passes
// when its p99 latency and the generator's lag at its end stay within the
// limits below.
const (
	simdConns   = 2 // one per core of the machine the sizes were set on
	sloP99      = 100 * time.Millisecond
	sloLag      = time.Second
	replayEvery = 10
	// scheduleStream keeps the ladder's RNG stream clear of the streams
	// the program draws from the same seed.
	scheduleStream = 1 << 32
)

// ladder holds the capacity steps as multiples of the closed-loop rate. It
// starts below 1 because an open-loop generator sharing the machine with
// the server cannot send hits as fast as one waiting client gets them.
var ladder = []float64{0.25, 0.5, 1, 1.5, 2, 3}

// simdReq is one request.
type simdReq struct {
	due  time.Duration // offset from the start of its ladder step
	key  int           // index into the warmed keys; -1 for a miss
	body []byte
}

// simdResult is one request's outcome.
type simdResult struct {
	req      simdReq
	lat, lag time.Duration // send (or due, on the ladder) to last body byte; due to send
	status   int
	cache    string
	body     []byte
	err      error
}

// simdRun is one child's service under test and its client.
type simdRun struct {
	env    *childEnv
	url    string
	client *http.Client
	miss   bool
	keys   []service.SimRequest
	warm   [][]byte // warm-up response body per key
	next   int      // requests made so far; picks the key or the miss seed
	seq    int      // span ids of requests
	rng    *rand.Rand
}

// runSimd is the simd-hit workload, or simd-miss when miss is set: an
// in-process simd server on a loopback listener and one closed-loop client.
func runSimd(env *childEnv, miss bool) (*childResult, error) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	transport := &http.Transport{MaxConnsPerHost: simdConns, MaxIdleConnsPerHost: simdConns}
	defer func() {
		transport.CloseIdleConnections()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // every request has finished, so there is nothing to drain
	}()
	s := &simdRun{
		env:    env,
		url:    ts.URL,
		client: &http.Client{Transport: transport},
		miss:   miss,
		rng:    sim.NewRNG(env.seed, scheduleStream),
	}
	for _, p := range catalog.PolicyNames() {
		s.keys = append(s.keys, service.SimRequest{Policy: p, Seed: env.seed, Jobs: env.sz.simdJobs})
	}
	res := newChildResult()
	rounds := env.sz.missRounds
	if !miss {
		rounds = env.sz.hitRounds
		for _, k := range s.keys {
			r := s.do(mustJSON(k), now())
			if r.err != nil || r.status != http.StatusOK {
				return nil, fmt.Errorf("warming %s: status %d, %v", k.Policy, r.status, r.err)
			}
			s.warm = append(s.warm, r.body)
			sum := sha256.Sum256(r.body)
			res.Outputs["warm "+k.Policy] = hex.EncodeToString(sum[:])
		}
	}
	plan := make([]simdReq, rounds*len(s.keys))
	for i := range plan {
		plan[i] = s.request()
	}

	// One operation is one round: a request for each catalog policy in
	// turn. Policies differ in cost, so a median over single requests
	// would jump between them with the mix; rounds all cost alike.
	env.startTiming()
	rep := env.tr.begin(0, "bench", env.kind)
	timed := make([]simdResult, len(plan))
	for i, r := range plan {
		env.timed(i/len(s.keys), func() {
			start := now()
			timed[i] = s.do(r.body, start)
			timed[i].req = r
			s.record(rep.id, timed[i], start)
		})
	}
	env.stopTiming()
	if miss {
		// Every repetition asks for the same seeds, so the answers must agree.
		h := sha256.New()
		for _, r := range timed {
			h.Write(r.body)
		}
		res.Outputs["miss bodies"] = hex.EncodeToString(h.Sum(nil))
	}
	counts, err := s.scrape()
	if err != nil {
		return nil, err
	}
	for k, v := range counts {
		res.Layer[k] = v
	}
	all := timed
	if env.tr != nil {
		lat := make([]float64, len(timed))
		for i, r := range timed {
			lat[i] = ms(r.lat)
		}
		slo, lag, steps := s.climb(rep.id, 1000/median(lat))
		res.Layer["loadgen.slo_rps"] = slo
		res.Layer["loadgen.lag_p99_ms"] = lag
		all = append(all, steps...)
	}
	rep.end(nil)
	res.Checked = "every 10th miss replayed on a fresh server"
	if !miss {
		res.Checked = "warm-up bodies"
	}
	s.verify(res, all)
	return res, nil
}

// request makes the next request of the run's class: the warmed keys in
// turn, or each catalog policy in turn at a seed no earlier request used.
func (s *simdRun) request() simdReq {
	i := s.next
	s.next++
	k := s.keys[i%len(s.keys)]
	if !s.miss {
		return simdReq{key: i % len(s.keys), body: mustJSON(k)}
	}
	// The bench seed itself is read as 1 when it is 0; miss seeds lie above both.
	k.Seed = (s.env.seed+1)<<20 + uint64(i)
	return simdReq{key: -1, body: mustJSON(k)}
}

// climb runs the capacity ladder from the closed-loop rate base and
// returns the highest rate whose step met the latency limit with the
// generator keeping up, and the generator's p99 lag over every step run. It
// stops at the first step that fails.
func (s *simdRun) climb(parent int, base float64) (slo, lagP99 float64, all []simdResult) {
	var lags []float64
	for _, m := range ladder {
		rate := m * base
		step := s.fire(parent, s.schedule(rate, s.env.sz.ladderStep))
		all = append(all, step...)
		var lat []float64
		for _, r := range step {
			lat = append(lat, ms(r.lat))
			lags = append(lags, ms(r.lag))
		}
		if len(step) == 0 || quantile(lat, 0.99) > ms(sloP99) || step[len(step)-1].lag > sloLag {
			break
		}
		slo = rate
	}
	if len(lags) == 0 {
		return slo, 0, all
	}
	return slo, quantile(lags, 0.99), all
}

// schedule draws Poisson arrivals at rate for one ladder step.
func (s *simdRun) schedule(rate float64, d time.Duration) []simdReq {
	var out []simdReq
	t := 0.0
	for {
		t += s.rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		r := s.request()
		r.due = time.Duration(t * float64(time.Second))
		out = append(out, r)
	}
}

// fire sends a ladder step open loop: each request goes out at its due
// time whether or not earlier ones have finished, and its latency counts
// from that due time, so time spent queued behind a slow request is
// measured.
func (s *simdRun) fire(parent int, plan []simdReq) []simdResult {
	out := make([]simdResult, len(plan))
	var wg sync.WaitGroup
	start := now()
	for i, r := range plan {
		due := start.Add(r.due)
		sleepUntil(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = s.do(r.body, due)
			out[i].req = r
		}()
	}
	wg.Wait()
	for i := range out {
		s.record(parent, out[i], start.Add(plan[i].due))
	}
	return out
}

// record adds a request's span; its id is the request's sequence number.
func (s *simdRun) record(parent int, r simdResult, start time.Time) {
	s.env.tr.record(parent, "http", "request."+r.cache, start, start.Add(r.lat),
		map[string]any{"id": s.seq, "cache": r.cache})
	s.seq++
}

// do posts one simulation request and reads the whole body.
func (s *simdRun) do(body []byte, due time.Time) simdResult {
	var r simdResult
	r.lag = now().Sub(due)
	resp, err := s.client.Post(s.url+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		r.lat = now().Sub(due)
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.lat = now().Sub(due)
	r.status = resp.StatusCode
	r.cache = resp.Header.Get("X-Cache")
	return r
}

// verify checks every request: each must return 200, a warmed key must
// return its warm-up bytes from the cache, a new seed must have computed,
// and every replayEvery-th miss must come out byte for byte the same from a
// fresh server.
func (s *simdRun) verify(res *childResult, all []simdResult) {
	fresh := service.New(service.Config{}).Handler()
	misses := 0
	for i, r := range all {
		msg := ""
		switch {
		case r.err != nil || r.status != http.StatusOK:
			msg = fmt.Sprintf("status %d, %v", r.status, r.err)
		case !s.miss && (r.cache != string(service.CacheHit) || !bytes.Equal(r.body, s.warm[r.req.key])):
			msg = fmt.Sprintf("a warmed key answered %q with other bytes than its warm-up", r.cache)
		case s.miss && r.cache != string(service.CacheMiss):
			msg = fmt.Sprintf("a new seed answered %q", r.cache)
		case s.miss:
			misses++
			if misses%replayEvery == 0 {
				rec := httptest.NewRecorder()
				fresh.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(r.req.body)))
				if !bytes.Equal(rec.Body.Bytes(), r.body) {
					msg = "replay on a fresh server differs"
				}
			}
		}
		res.check(msg == "", "request %d: %s", i, msg)
	}
}

// scrape reads the service's counters from /metrics.
func (s *simdRun) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if metric, want := promCounters[name]; ok && want {
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return nil, fmt.Errorf("/metrics %s: %w", name, err)
			}
			out[metric] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) != len(promCounters) {
		return nil, fmt.Errorf("/metrics has %d of the %d counters the benchmark reads", len(out), len(promCounters))
	}
	return out, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value marshalled here is a plain struct
	}
	return b
}
