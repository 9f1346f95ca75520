package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"sita/internal/dist"
	"sita/internal/stats"
	"sita/internal/workload"
)

func TestProfilesLookup(t *testing.T) {
	for _, name := range []string{"psc-c90", "psc-j90", "ctc-sp2"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("profile name %q, want %q", p.Name, name)
		}
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
}

func TestProfileSizeDistMatchesTargets(t *testing.T) {
	for _, p := range []Profile{C90(), J90(), CTC()} {
		d := p.MustSizeDist()
		if math.Abs(d.Moment(1)-p.MeanService)/p.MeanService > 1e-6 {
			t.Errorf("%s: fitted mean %v, want %v", p.Name, d.Moment(1), p.MeanService)
		}
		lo, hi := d.Support()
		if lo != p.MinService || hi != p.MaxService {
			t.Errorf("%s: support [%v, %v], want [%v, %v]", p.Name, lo, hi, p.MinService, p.MaxService)
		}
	}
}

func TestC90ProfileIsHeavyTailed(t *testing.T) {
	d := C90().MustSizeDist()
	if scv := dist.SquaredCV(d); scv < 20 {
		t.Fatalf("C90 C^2 = %v, want very high (paper: 43 on the raw log)", scv)
	}
	// The biggest ~1% of jobs carry half the load.
	c := d.LoadCutoff(0.5)
	frac := 1 - d.CDF(c)
	if frac > 0.05 {
		t.Fatalf("half-load tail fraction = %v, want < 5%%", frac)
	}
}

func TestCTCProfileLowerVariance(t *testing.T) {
	c90 := dist.SquaredCV(C90().MustSizeDist())
	ctc := dist.SquaredCV(CTC().MustSizeDist())
	if ctc >= c90/4 {
		t.Fatalf("CTC C^2 = %v should be far below C90's %v (12-hour kill limit)", ctc, c90)
	}
}

func TestGenerateTrace(t *testing.T) {
	p := C90()
	p.Jobs = 5000
	tr, err := Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5000 {
		t.Fatalf("len = %d, want 5000", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	st := tr.ComputeStats()
	if math.Abs(st.Mean-p.MeanService)/p.MeanService > 0.5 {
		t.Errorf("trace mean %v far from target %v", st.Mean, p.MeanService)
	}
	if st.Min < p.MinService || st.Max > p.MaxService {
		t.Errorf("trace min/max [%v, %v] outside profile [%v, %v]",
			st.Min, st.Max, p.MinService, p.MaxService)
	}
	if st.GapSCV < 2 {
		t.Errorf("trace gap C^2 = %v, want bursty", st.GapSCV)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := J90()
	p.Jobs = 500
	a, err := Generate(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("same seed, different job %d", i)
		}
	}
	c, err := Generate(p, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.Jobs[0] == c.Jobs[0] && a.Jobs[1] == c.Jobs[1] {
		t.Fatal("different seeds produced identical prefix")
	}
}

func TestGenerateErrors(t *testing.T) {
	p := C90()
	p.Jobs = 0
	if _, err := Generate(p, 1); err == nil {
		t.Fatal("expected error for empty profile")
	}
	p = C90()
	p.MeanService = p.MaxService * 2
	if _, err := Generate(p, 1); err == nil {
		t.Fatal("expected error for infeasible profile")
	}
}

func TestComputeStatsTailFraction(t *testing.T) {
	p := C90()
	p.Jobs = 30000
	tr, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.ComputeStats()
	// Paper: ~1.3% of jobs carry half the load; synthetic should be a small
	// single-digit percentage.
	if st.TailJobFraction > 0.05 || st.TailJobFraction <= 0 {
		t.Fatalf("tail job fraction = %v, want (0, 0.05]", st.TailJobFraction)
	}
	if st.SquaredCV < 10 {
		t.Fatalf("size C^2 = %v, want high", st.SquaredCV)
	}
}

func TestSplitHalf(t *testing.T) {
	p := CTC()
	p.Jobs = 1001
	tr, err := Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tr.SplitHalf()
	if a.Len() != 500 || b.Len() != 501 {
		t.Fatalf("split %d/%d, want 500/501", a.Len(), b.Len())
	}
	if a.Jobs[len(a.Jobs)-1].Arrival > b.Jobs[0].Arrival {
		t.Fatal("halves out of order")
	}
}

func TestJobsAtLoadPoisson(t *testing.T) {
	p := C90()
	p.Jobs = 20000
	tr, err := Generate(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	jobs := tr.JobsAtLoad(0.6, 2, true, 9)
	if len(jobs) != tr.Len() {
		t.Fatalf("len = %d, want %d", len(jobs), tr.Len())
	}
	totalWork := 0.0
	for _, j := range jobs {
		totalWork += j.Size
	}
	horizon := jobs[len(jobs)-1].Arrival
	realized := totalWork / (horizon * 2)
	if math.Abs(realized-0.6) > 0.1 {
		t.Fatalf("realized load %v, want ~0.6", realized)
	}
	// Sizes preserved in trace order.
	for i := range jobs {
		if jobs[i].Size != tr.Jobs[i].Size {
			t.Fatalf("size order not preserved at %d", i)
		}
	}
}

func TestJobsAtLoadScaledGapsStayBursty(t *testing.T) {
	p := C90()
	p.Jobs = 20000
	tr, err := Generate(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	jobs := tr.JobsAtLoad(0.6, 2, false, 9)
	scaled := &Trace{Name: "scaled", Jobs: jobs}
	if got := scaled.ComputeStats().GapSCV; got < 2 {
		t.Fatalf("scaled gaps C^2 = %v, want bursty", got)
	}
}

func TestJobsAtLoadPanicsOnBadLoad(t *testing.T) {
	tr := &Trace{Name: "x", Jobs: nil}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.JobsAtLoad(1.5, 2, true, 1)
}

func TestSWFRoundTrip(t *testing.T) {
	p := CTC()
	p.Jobs = 300
	tr, err := Generate(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSWF(tr, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSWF("roundtrip", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("roundtrip len %d, want %d", back.Len(), tr.Len())
	}
	for i := range tr.Jobs {
		if math.Abs(back.Jobs[i].Size-tr.Jobs[i].Size) > 0.01 {
			t.Fatalf("job %d size %v != %v", i, back.Jobs[i].Size, tr.Jobs[i].Size)
		}
		if math.Abs(back.Jobs[i].Arrival-tr.Jobs[i].Arrival) > 0.01 {
			t.Fatalf("job %d arrival %v != %v", i, back.Jobs[i].Arrival, tr.Jobs[i].Arrival)
		}
	}
}

func TestReadSWFSkipsCommentsAndCancelled(t *testing.T) {
	in := `; header comment
; another

1 100.0 -1 50.0 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
2 150.0 -1 -1 8 -1 -1 8 -1 -1 0 -1 -1 -1 -1 -1 -1 -1
3 200.0 -1 75.0 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
`
	tr, err := ReadSWF("test", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d, want 2 (cancelled job dropped)", tr.Len())
	}
	if tr.Jobs[0].Size != 50 || tr.Jobs[1].Size != 75 {
		t.Fatalf("sizes %v, %v", tr.Jobs[0].Size, tr.Jobs[1].Size)
	}
}

func TestReadSWFErrors(t *testing.T) {
	// Each error names the stream and, where one line is at fault, that line.
	cases := []struct{ in, want string }{
		{"1 2", "swf bad line 1"}, // too few fields
		{"1 x -1 50 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1", "swf bad line 1"},                                                     // bad submit
		{"1 10 -1 zz 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1", "swf bad line 1"},                                                    // bad runtime
		{"; only comments\n", "swf bad"},                                                                                           // no jobs
		{"2 50 -1 10 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n1 40 -1 10 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1", "swf bad line 2"}, // unordered
		{"1 -5 -1 10 8", "swf bad line 1"},                                                                                         // negative submit
		{"1 10 -1 2e12 8", "swf bad line 1"},                                                                                       // runtime beyond the bound
		{"1 2e12 -1 10 8", "swf bad line 1"},                                                                                       // submit beyond the bound
		{"1 5 -1 10 8\n2 6 -1 7e-324 8", "swf bad line 2"},                                                                         // runtime below the bound
		{"; header\n" + swfAllAtZero, "swf bad line 32"},                                                                           // no arrival gaps to rescale
	}
	for i, c := range cases {
		_, err := ReadSWF("bad", strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want one containing %q", i, err, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	tr := &Trace{Name: "v", Jobs: []workload.Job{
		{ID: 0, Arrival: 1, Size: 10},
		{ID: 1, Arrival: 2, Size: 20},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := &Trace{Name: "b", Jobs: []workload.Job{{ID: 0, Arrival: 5, Size: -1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative size accepted")
	}
	unordered := &Trace{Name: "u", Jobs: []workload.Job{
		{ID: 0, Arrival: 5, Size: 1},
		{ID: 1, Arrival: 4, Size: 1},
	}}
	if err := unordered.Validate(); err == nil {
		t.Fatal("unordered arrivals accepted")
	}
}

func TestBurstSizeCorrelationKnob(t *testing.T) {
	p := C90()
	p.Jobs = 20000

	indep, err := Generate(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	p.BurstSizeBand = 0.15
	corr, err := Generate(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Use log sizes: raw heavy-tailed sizes make the ACF estimator useless.
	logs := func(tr *Trace) []float64 {
		out := make([]float64, tr.Len())
		for i, j := range tr.Jobs {
			out[i] = math.Log(j.Size)
		}
		return out
	}
	acfIndep := stats.Autocorrelation(logs(indep), 1)
	acfCorr := stats.Autocorrelation(logs(corr), 1)
	if math.Abs(acfIndep) > 0.05 {
		t.Errorf("independent sizes lag-1 acf = %v, want ~0", acfIndep)
	}
	if acfCorr < 0.3 {
		t.Errorf("burst-correlated sizes lag-1 acf = %v, want substantial", acfCorr)
	}
	// The correlation must not distort the marginal much.
	mi, mc := indep.ComputeStats(), corr.ComputeStats()
	if math.Abs(mi.Mean-mc.Mean)/mi.Mean > 0.25 {
		t.Errorf("correlated mean %v drifted from independent %v", mc.Mean, mi.Mean)
	}
}

func TestHead(t *testing.T) {
	tr := &Trace{Name: "h", Jobs: []workload.Job{
		{ID: 0, Arrival: 1, Size: 1},
		{ID: 1, Arrival: 2, Size: 2},
		{ID: 2, Arrival: 3, Size: 3},
	}}
	h := tr.Head(2)
	if h.Len() != 2 || h.Jobs[1].Size != 2 {
		t.Fatalf("head wrong: %+v", h.Jobs)
	}
	// Copy, not alias.
	h.Jobs[0].Size = 99
	if tr.Jobs[0].Size == 99 {
		t.Fatal("head aliases the original")
	}
	if tr.Head(10).Len() != 3 {
		t.Fatal("over-length head should clamp")
	}
}

func TestFilterSize(t *testing.T) {
	tr := &Trace{Name: "f", Jobs: []workload.Job{
		{Arrival: 1, Size: 5},
		{Arrival: 2, Size: 10},
		{Arrival: 3, Size: 50},
	}}
	f := tr.FilterSize(5, 10) // (5, 10]: only the size-10 job
	if f.Len() != 1 || f.Jobs[0].Size != 10 {
		t.Fatalf("filter wrong: %+v", f.Jobs)
	}
}

func TestMergeTraces(t *testing.T) {
	a := &Trace{Name: "a", Jobs: []workload.Job{
		{Arrival: 1, Size: 1}, {Arrival: 5, Size: 1},
	}}
	b := &Trace{Name: "b", Jobs: []workload.Job{
		{Arrival: 2, Size: 2}, {Arrival: 4, Size: 2},
	}}
	m := Merge("ab", a, b)
	if m.Len() != 4 {
		t.Fatalf("merged len = %d", m.Len())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	wantArr := []float64{1, 2, 4, 5}
	for i, j := range m.Jobs {
		if j.Arrival != wantArr[i] {
			t.Fatalf("merge order wrong at %d: %+v", i, m.Jobs)
		}
		if j.ID != i {
			t.Fatalf("merge did not renumber: %+v", j)
		}
	}
	first, last := m.TimeSpan()
	if first != 1 || last != 5 {
		t.Fatalf("timespan [%v, %v]", first, last)
	}
}

func TestThin(t *testing.T) {
	tr := &Trace{Name: "t"}
	for i := 0; i < 10; i++ {
		tr.Jobs = append(tr.Jobs, workload.Job{ID: i, Arrival: float64(i), Size: 1})
	}
	th := tr.Thin(3)
	if th.Len() != 4 { // indices 0,3,6,9
		t.Fatalf("thin len = %d, want 4", th.Len())
	}
	if th.Jobs[1].Arrival != 3 {
		t.Fatalf("thin picked wrong jobs: %+v", th.Jobs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("thin(0) should panic")
		}
	}()
	tr.Thin(0)
}

func TestEmptyTimeSpan(t *testing.T) {
	tr := &Trace{Name: "e"}
	if a, b := tr.TimeSpan(); a != 0 || b != 0 {
		t.Fatal("empty timespan should be zeros")
	}
}

func TestReadSWFRejectsNonFiniteValues(t *testing.T) {
	for _, line := range []string{
		"1 nan -1 10 8",
		"1 10 -1 inf 8",
		"1 +Inf -1 10 8",
	} {
		if _, err := ReadSWF("bad", strings.NewReader(line)); err == nil {
			t.Errorf("accepted non-finite field: %q", line)
		}
	}
}
