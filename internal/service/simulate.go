package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"sita"
	"sita/internal/catalog"
	"sita/internal/core"
	"sita/internal/server"
	"sita/internal/streamcache"
	"sita/internal/trace"
)

// SimRequest is the body of POST /v1/simulate. Every field except Policy
// is optional; zero values take the documented defaults. TimeoutMS bounds
// the request's total time (queueing + simulation) and is deliberately
// excluded from the cache key: it changes when an answer arrives, never
// what the answer is.
type SimRequest struct {
	Policy    string  `json:"policy"`
	Hosts     int     `json:"hosts"`      // default 2
	Load      float64 `json:"load"`       // default 0.7
	Profile   string  `json:"profile"`    // default "psc-c90"
	Seed      uint64  `json:"seed"`       // default 1
	Jobs      int     `json:"jobs"`       // cap on trace length; 0 = profile default
	Warmup    float64 `json:"warmup"`     // default 0.1; -1 means exactly 0
	Bursty    bool    `json:"bursty"`     // trace-driven bursty arrivals instead of Poisson
	PS        bool    `json:"ps"`         // Processor-Sharing hosts instead of FCFS
	TimeoutMS int     `json:"timeout_ms"` // 0 = server default
}

// normalize applies defaults and validates against the shared catalog
// contracts. It returns a canonicalized copy (aliases resolved) so that
// e.g. "LWL" and "least-work-left" share one cache entry.
func (q SimRequest) normalize(maxJobs int) (SimRequest, error) {
	if q.Policy == "" {
		return q, errors.New("policy is required")
	}
	c, err := catalog.CanonicalPolicy(q.Policy)
	if err != nil {
		return q, err
	}
	q.Policy = c
	if r, _ := core.LookupPolicy(c); q.PS && r.Pull {
		return q, fmt.Errorf("policy %s holds jobs in a central queue until a host idles, but processor-sharing hosts take every job at once; it cannot run with \"ps\": true", c)
	}
	if q.Hosts == 0 {
		q.Hosts = 2
	}
	if q.Load == 0 {
		q.Load = 0.7
	}
	if q.Profile == "" {
		q.Profile = "psc-c90"
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	switch {
	case q.Warmup == 0:
		q.Warmup = 0.1
	//lint:allow floateq sentinel check against the exact literal -1, not a computed float
	case q.Warmup == -1:
		q.Warmup = 0
	}
	if err := catalog.CheckHosts(q.Hosts); err != nil {
		return q, err
	}
	if err := catalog.CheckLoad(q.Load); err != nil {
		return q, err
	}
	if err := catalog.CheckProfile(q.Profile); err != nil {
		return q, err
	}
	if err := catalog.CheckWarmup(q.Warmup); err != nil {
		return q, err
	}
	if err := catalog.CheckJobs(q.Jobs); err != nil {
		return q, err
	}
	if q.Jobs > maxJobs {
		return q, fmt.Errorf("jobs %d exceeds the server's limit of %d", q.Jobs, maxJobs)
	}
	if q.TimeoutMS < 0 {
		return q, fmt.Errorf("timeout_ms must be >= 0, got %d", q.TimeoutMS)
	}
	return q, nil
}

// cacheKey is the canonical identity of the simulation this request asks
// for: every field that influences the output, in fixed order, and
// nothing else (TimeoutMS is excluded). Deterministic simulation makes
// this key a complete description of the response bytes.
func (q SimRequest) cacheKey() string {
	return fmt.Sprintf("sim|p=%s|h=%d|l=%g|pr=%s|s=%d|j=%d|w=%g|b=%t|ps=%t",
		q.Policy, q.Hosts, q.Load, q.Profile, q.Seed, q.Jobs, q.Warmup, q.Bursty, q.PS)
}

// timeout resolves the request's effective deadline under the server's
// default and ceiling.
func (q SimRequest) timeout(cfg Config) time.Duration {
	d := cfg.DefaultTimeout
	if q.TimeoutMS > 0 {
		d = time.Duration(q.TimeoutMS) * time.Millisecond
	}
	if d > cfg.MaxTimeout {
		d = cfg.MaxTimeout
	}
	return d
}

// SimResponse is the body of a successful POST /v1/simulate.
type SimResponse struct {
	Policy  string  `json:"policy"` // the policy's display name
	Hosts   int     `json:"hosts"`
	Load    float64 `json:"load"`
	Profile string  `json:"profile"`
	Seed    uint64  `json:"seed"`
	Jobs    int     `json:"jobs"` // jobs simulated
	Warmup  float64 `json:"warmup"`
	Bursty  bool    `json:"bursty"`
	PS      bool    `json:"ps"`

	MeanSlowdown float64 `json:"mean_slowdown"`
	VarSlowdown  float64 `json:"var_slowdown"`
	MaxSlowdown  float64 `json:"max_slowdown"`
	MeanResponse float64 `json:"mean_response_s"`
	MeanWait     float64 `json:"mean_wait_s"`
	Horizon      float64 `json:"horizon_s"`

	HostLoadShare  []float64 `json:"host_load_share"`
	HostUtilize    []float64 `json:"host_utilization"`
	ShortSlowdown  *float64  `json:"short_slowdown,omitempty"` // SITA designs only
	LongSlowdown   *float64  `json:"long_slowdown,omitempty"`
	FairnessSpread *float64  `json:"fairness_spread,omitempty"`
}

// badRequest marks a client error (400) carried through the cache layer.
type badRequest struct{ msg string }

func (e badRequest) Error() string { return e.msg }

// handleSimulate is the POST /v1/simulate lifecycle: parse and normalize,
// consult/populate the cache under the canonical key (coalescing
// concurrent identical requests onto one simulation), and map failures to
// 400 (bad request), 429 (queue full) or 503 (deadline).
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	var req SimRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	req, err := req.normalize(s.cfg.MaxJobs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	body, status, err := s.cache.Do(req.cacheKey(), func() ([]byte, error) {
		return s.runSimulation(req)
	})
	if err != nil {
		var bad badRequest
		switch {
		case errors.As(err, &bad):
			writeError(w, http.StatusBadRequest, bad.msg)
		case errors.Is(err, errBusy):
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, errDeadline):
			writeError(w, http.StatusServiceUnavailable, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", string(status))
	w.Write(body)
}

// runSimulation executes one admitted simulation end to end: claim a
// slot, build the (memoized) workload and a fresh policy, run it with the
// deadline's cancel probe installed, and marshal the response.
// The deadline context is deliberately detached from the client
// connection: once admitted, a simulation runs to completion (or its own
// deadline) even if the client goes away, so a drain always converges and
// coalesced followers still get their answer.
func (s *Server) runSimulation(req SimRequest) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), req.timeout(s.cfg))
	defer cancel()

	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	if s.testHookAdmitted != nil {
		s.testHookAdmitted()
	}

	wl, err := s.workload(req.Profile, req.Seed, req.Jobs)
	if err != nil {
		return nil, badRequest{err.Error()}
	}
	p, design, err := catalog.Build(req.Policy, req.Load, wl, req.Hosts, req.Seed)
	if err != nil {
		return nil, badRequest{err.Error()}
	}
	// The stream cache dedupes identical (workload, load, hosts, seed)
	// requests — repeated or coalesced simulations share one generated
	// stream, which the engines' read-only contract makes safe.
	jobs := streamcache.Shared.JobsAtLoad(wl.Trace, req.Load, req.Hosts, !req.Bursty, req.Seed)

	cfg := server.Config{
		Hosts:          req.Hosts,
		Policy:         p,
		WarmupFraction: req.Warmup,
	}
	if design != nil {
		cfg.SizeClass = design.Classify
	}
	cfg.Interrupt = func() bool {
		return ctx.Err() != nil
	}
	s.metrics.addSimulation()
	var res *server.Result
	if req.PS {
		res = server.RunPS(jobs, cfg)
	} else {
		res = server.Run(jobs, cfg)
	}
	if res.Interrupted {
		s.metrics.addDeadline()
		return nil, errDeadline
	}

	resp := SimResponse{
		Policy: res.PolicyName, Hosts: req.Hosts, Load: req.Load,
		Profile: req.Profile, Seed: req.Seed, Jobs: len(jobs),
		Warmup: req.Warmup, Bursty: req.Bursty, PS: req.PS,
		MeanSlowdown:  res.Slowdown.Mean(),
		VarSlowdown:   res.Slowdown.Variance(),
		MaxSlowdown:   res.Slowdown.Max(),
		MeanResponse:  res.Response.Mean(),
		MeanWait:      res.Wait.Mean(),
		Horizon:       res.Horizon,
		HostLoadShare: res.LoadFractions(),
	}
	resp.HostUtilize = make([]float64, req.Hosts)
	for i := range resp.HostUtilize {
		resp.HostUtilize[i] = res.Utilization(i)
	}
	if design != nil {
		if audit, err := design.Audit(res); err == nil {
			short, long, spread := audit.ShortMean, audit.LongMean, audit.Spread
			resp.ShortSlowdown, resp.LongSlowdown, resp.FairnessSpread = &short, &long, &spread
		}
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// AdviseResponse is the body of GET /v1/advise: core.Advise's workload
// characterization, each SITA variant's derived design with its analytic
// prediction, and the recommended variant ("" when none is feasible).
type AdviseResponse struct {
	Profile  string  `json:"profile"`
	Load     float64 `json:"load"`
	Hosts    int     `json:"hosts"`
	MeanSize float64 `json:"mean_size_s"`
	SizeSCV  float64 `json:"size_scv"`
	// TailCutoff is the size above which the biggest jobs carry half the
	// load; TailFraction is how few jobs those are.
	TailCutoff   float64         `json:"tail_cutoff_s"`
	TailFraction float64         `json:"tail_job_fraction"`
	Variants     []VariantAdvice `json:"variants"`
	Recommended  string          `json:"recommended"`
}

// VariantAdvice is one SITA variant's derived design.
type VariantAdvice struct {
	Variant       string    `json:"variant"`
	Cutoff        float64   `json:"cutoff_s,omitempty"`
	ShortHosts    int       `json:"short_hosts,omitempty"`
	ShortLoadFrac float64   `json:"short_load_fraction,omitempty"`
	PredictedES   float64   `json:"predicted_mean_slowdown,omitempty"`
	PredictedVarS float64   `json:"predicted_var_slowdown,omitempty"`
	HostLoads     []float64 `json:"host_loads,omitempty"`
	Error         string    `json:"error,omitempty"`
}

// handleAdvise serves GET /v1/advise. Advice is pure analysis (no
// simulation), so it bypasses the admission queue but still flows through
// the cache: repeated dashboards polling the same question cost one
// derivation.
func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	profile := q.Get("profile")
	if profile == "" {
		profile = "psc-c90"
	}
	load := 0.7
	if v := q.Get("load"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad load: "+err.Error())
			return
		}
		load = f
	}
	hosts := 2
	if v := q.Get("hosts"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad hosts: "+err.Error())
			return
		}
		hosts = n
	}
	// Clients still send seed; advice depends on none, so it is checked
	// and otherwise ignored.
	if v := q.Get("seed"); v != "" {
		if _, err := strconv.ParseUint(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, "bad seed: "+err.Error())
			return
		}
	}
	if err := catalog.CheckProfile(profile); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := catalog.CheckLoad(load); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := catalog.CheckAdviceHosts(hosts); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	key := fmt.Sprintf("advise|pr=%s|l=%g|h=%d", profile, load, hosts)
	body, status, err := s.cache.Do(key, func() ([]byte, error) {
		return runAdvise(profile, load, hosts)
	})
	if err != nil {
		var bad badRequest
		if errors.As(err, &bad) {
			writeError(w, http.StatusBadRequest, bad.msg)
		} else {
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", string(status))
	w.Write(body)
}

// runAdvise maps core.Advise's characterization, designs and
// recommendation for the profile's size distribution onto the response
// body. Advice reads the distribution, never a generated trace, so it
// depends on no seed and leaves the workload memo alone.
func runAdvise(profile string, load float64, hosts int) ([]byte, error) {
	p, err := trace.ByName(profile)
	if err != nil {
		return nil, badRequest{err.Error()}
	}
	size, err := p.SizeDist()
	if err != nil {
		return nil, badRequest{err.Error()}
	}
	a := core.Advise(load, size, hosts)
	resp := AdviseResponse{
		Profile:      profile,
		Load:         load,
		Hosts:        hosts,
		MeanSize:     a.MeanSize,
		SizeSCV:      a.SizeSCV,
		TailCutoff:   a.TailCutoff,
		TailFraction: a.TailFraction,
	}
	for _, vd := range a.Variants {
		adv := VariantAdvice{Variant: vd.Variant.String()}
		if d := vd.Design; d == nil {
			adv.Error = vd.Err.Error()
		} else {
			adv.Cutoff = d.Cutoff
			adv.ShortHosts = d.ShortHosts
			adv.ShortLoadFrac = d.ShortLoadFraction()
			adv.PredictedES = d.Predicted.MeanSlowdown
			adv.PredictedVarS = d.Predicted.VarSlowdown
			for _, h := range d.Predicted.Hosts {
				adv.HostLoads = append(adv.HostLoads, h.Load)
			}
		}
		resp.Variants = append(resp.Variants, adv)
	}
	if a.Recommended != nil {
		resp.Recommended = a.Recommended.Variant.String()
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// wlKey identifies one memoized workload: (profile, seed, jobs cap).
type wlKey struct {
	profile string
	seed    uint64
	jobs    int
}

// memoCap bounds the workload memo; 3 profiles x a few seeds fit easily.
const memoCap = 16

// workload returns the memoized workload, generating (and truncating the
// trace to the jobs cap before re-timing) on first use. Trace generation
// is the expensive part of a cold request, and a handful of profiles serve
// most traffic; workloads are immutable once built and shared read-only
// across requests (JobsAtLoad never mutates the trace).
func (s *Server) workload(profile string, seed uint64, jobs int) (*sita.Workload, error) {
	wl, _, err := s.workloads.Do(wlKey{profile, seed, jobs}, func() (*sita.Workload, error) {
		wl, err := sita.LoadWorkload(profile, seed)
		if err != nil {
			return nil, err
		}
		if jobs > 0 && jobs < wl.Trace.Len() {
			// Truncate derives a child trace (sharing the parent's
			// columns, with its own cache identity and size mean); the full-trace
			// entry for the same (profile, seed) may be cached too and
			// stays intact.
			wl = &sita.Workload{Profile: wl.Profile, Size: wl.Size, Trace: wl.Trace.Truncate(jobs)}
		}
		return wl, nil
	})
	return wl, err
}
