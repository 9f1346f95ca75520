package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"sita/internal/workload"
)

// The Standard Workload Format (SWF) is the interchange format of
// Feitelson's Parallel Workloads Archive — the source of the paper's CTC
// trace. Each non-comment line carries 18 whitespace-separated fields;
// this reproduction consumes field 2 (submit time) and field 4 (run time)
// and emits well-formed rows so that real archive logs can be dropped in
// as a replacement for the synthetic traces.
const (
	swfFields       = 18
	swfSubmitField  = 1 // 0-based index of submit time
	swfRuntimeField = 3 // 0-based index of run time

	// swfMaxSeconds bounds submit and run times, and swfMinRuntime
	// bounds positive run times from below. Both are far beyond any real
	// log (about 31,700 years; a microsecond) and far enough inside the
	// float64 range that re-timing a trace to a load (JobsAtLoad) keeps
	// its rate and gap scale positive and every arrival finite.
	swfMaxSeconds = 1e12
	swfMinRuntime = 1e-6
	// swfMinSpan is the least last submit time ReadSWF accepts. Bursty
	// re-timing rescales the log's gaps, measured from time 0, to the
	// target load; with every job submitted in the log's first second
	// there is no gap pattern to rescale.
	swfMinSpan = 1
)

// ReadSWF parses an SWF stream into a trace. Comment lines (leading ';')
// are skipped; jobs with non-positive runtimes (cancelled or corrupt
// entries) are dropped, as is conventional when consuming archive logs.
// Every error names the stream and, where one is at fault, the line. A
// negative submit time, a time above swfMaxSeconds, a positive runtime
// below swfMinRuntime, out-of-order submit times, or a log whose last
// submit time is below swfMinSpan is an error: each would make
// JobsAtLoad fail or produce non-finite arrivals.
func ReadSWF(name string, r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var jobs []workload.Job
	lineNo, lastLine := 0, 0
	id := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < swfRuntimeField+1 {
			return nil, fmt.Errorf("trace: swf %s line %d: %d fields, want >= %d",
				name, lineNo, len(fields), swfRuntimeField+1)
		}
		submit, err := strconv.ParseFloat(fields[swfSubmitField], 64)
		if err != nil || math.IsNaN(submit) || submit < 0 || submit > swfMaxSeconds {
			return nil, fmt.Errorf("trace: swf %s line %d: bad submit time %q, want seconds in [0, %g]",
				name, lineNo, fields[swfSubmitField], swfMaxSeconds)
		}
		runtime, err := strconv.ParseFloat(fields[swfRuntimeField], 64)
		if err != nil || math.IsNaN(runtime) || math.IsInf(runtime, 0) || runtime > swfMaxSeconds || (runtime > 0 && runtime < swfMinRuntime) {
			return nil, fmt.Errorf("trace: swf %s line %d: bad runtime %q, want <= 0 (dropped) or seconds in [%g, %g]",
				name, lineNo, fields[swfRuntimeField], swfMinRuntime, swfMaxSeconds)
		}
		if runtime <= 0 {
			continue
		}
		if n := len(jobs); n > 0 && submit < jobs[n-1].Arrival {
			return nil, fmt.Errorf("trace: swf %s line %d: submit time %v before the previous job's %v",
				name, lineNo, submit, jobs[n-1].Arrival)
		}
		jobs = append(jobs, workload.Job{ID: id, Arrival: submit, Size: runtime})
		lastLine = lineNo
		id++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: swf %s: %w", name, err)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("trace: swf %s: no usable jobs", name)
	}
	if last := jobs[len(jobs)-1].Arrival; last < swfMinSpan {
		return nil, fmt.Errorf("trace: swf %s line %d: last submit time %v s, want >= %v s: the log has no arrival gaps to rescale",
			name, lastLine, last, swfMinSpan)
	}
	// New assigns an anonymous cache identity: an archive log has no
	// generation recipe, but one parsed instance is still shareable.
	return New(name, jobs), nil
}

// WriteSWF emits the trace as SWF v2 with a descriptive comment header.
// Unknown fields are written as -1 per the format's convention; the
// processor count is written as 8, matching the paper's 8-processor hosts.
func WriteSWF(t *Trace, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "; SWF v2 synthetic trace %q\n", t.Name)
	fmt.Fprintf(bw, "; generated by the schroeder-harchol-balter task-assignment reproduction\n")
	fmt.Fprintf(bw, "; fields: id submit wait runtime procs avgcpu mem reqprocs reqtime reqmem status uid gid app queue partition prevjob thinktime\n")
	for i, j := range t.Jobs {
		fields := make([]string, swfFields)
		for k := range fields {
			fields[k] = "-1"
		}
		fields[0] = strconv.Itoa(i + 1)
		fields[swfSubmitField] = strconv.FormatFloat(j.Arrival, 'f', 2, 64)
		fields[swfRuntimeField] = strconv.FormatFloat(j.Size, 'f', 2, 64)
		fields[4] = "8" // allocated processors: one full 8-way host
		fields[7] = "8" // requested processors
		if _, err := fmt.Fprintln(bw, strings.Join(fields, " ")); err != nil {
			return fmt.Errorf("trace: write swf: %w", err)
		}
	}
	return bw.Flush()
}
