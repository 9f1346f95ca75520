package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sita/internal/experiment"
)

// rendered is one table as cmd/sweep -out writes it.
type rendered struct{ id, txt, csv string }

// runSweep is the paper-sweep workload: every driver in cmd/sweep -exp all
// order on one worker, each table rendered as text and CSV. The process is
// fresh, so the trace cache and the shared stream cache start empty, as
// they do for a user regenerating results/.
func runSweep(env *childEnv) (*childResult, error) {
	want, err := loadSweepExpectations(env.root, env.seed)
	if err != nil {
		return nil, err
	}
	cfg := experiment.Default()
	cfg.Seed = env.seed
	cfg.Workers = 1
	drivers := experiment.Drivers()
	ids := env.sz.drivers
	res := newChildResult()
	out := make([][]rendered, len(ids))
	errs := make([]error, len(ids))
	var renderTime time.Duration

	env.startTiming()
	rep := env.tr.begin(0, "bench", env.kind)
	for i, id := range ids {
		var tables []experiment.Table
		d := env.timed(0, func() {
			sp := env.tr.begin(rep.id, "experiment", id)
			tables, errs[i] = drivers[id](cfg)
			sp.end(nil)
		})
		res.Layer["experiment."+id+"_ms"] = ms(d)
		renderTime += env.timed(0, func() {
			sp := env.tr.begin(rep.id, "experiment", "render")
			for _, t := range tables {
				out[i] = append(out[i], rendered{t.ID, t.Format(), t.CSV()})
			}
			sp.end(nil)
		})
	}
	rep.end(nil)
	env.stopTiming()
	res.Layer["experiment.render_ms"] = ms(renderTime)

	res.Checked = want.source
	compared := 0
	for i, id := range ids {
		if errs[i] != nil {
			res.check(false, "%s: %v", id, errs[i])
			continue
		}
		digest := digestTables(out[i])
		res.Outputs[id] = digest
		msg, n := want.verify(id, out[i], digest)
		compared += n
		res.check(msg == "", "%s: %s", id, msg)
	}
	res.check(compared > 0, "no results/ file or pinned digest matched any table")
	return res, nil
}

// sweepExpectations holds what one seed's sweep must reproduce.
type sweepExpectations struct {
	source  string
	files   map[string]string // seed 1: results/ file name -> content
	digests map[string]string // pinned: driver id -> digest of its tables
	headers map[string]string // otherwise: table id -> CSV shape (header and row labels)
}

// loadSweepExpectations reads results/ for seed 1, the pinned digests in
// bench/testdata for seeds that have them, and for any other seed only the
// table shapes, which do not depend on the seed.
func loadSweepExpectations(root string, seed uint64) (*sweepExpectations, error) {
	results, err := readResults(filepath.Join(root, "results"))
	if err != nil {
		return nil, err
	}
	if seed == 1 {
		return &sweepExpectations{source: "results/ (seed 1)", files: results}, nil
	}
	pinned := filepath.Join("bench", "testdata", fmt.Sprintf("sweep-seed%d.sha256", seed))
	digests, err := readDigests(filepath.Join(root, pinned))
	if err == nil {
		return &sweepExpectations{source: pinned, digests: digests}, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	headers := map[string]string{}
	for name, content := range results {
		if id, ok := strings.CutSuffix(name, ".csv"); ok {
			headers[id] = csvShape(content)
		}
	}
	return &sweepExpectations{
		source:  fmt.Sprintf("unchecked: seed %d has no pinned values; checked table shapes and repeatability", seed),
		headers: headers,
	}, nil
}

// verify checks one driver's tables and reports a mismatch (empty when
// none) and how many reference values it compared against.
func (w *sweepExpectations) verify(id string, tables []rendered, digest string) (string, int) {
	if w.digests != nil {
		pinned, ok := w.digests[id]
		if !ok {
			return "", 0
		}
		if pinned != digest {
			return fmt.Sprintf("digest %s, pinned %s", digest, pinned), 1
		}
		return "", 1
	}
	n := 0
	for _, t := range tables {
		if w.files != nil {
			for name, got := range map[string]string{t.id + ".txt": t.txt, t.id + ".csv": t.csv} {
				if content, ok := w.files[name]; ok {
					n++
					if content != got {
						return "differs from results/" + name, n
					}
				}
			}
			continue
		}
		if shape, ok := w.headers[t.id]; ok {
			n++
			if shape != csvShape(t.csv) {
				return fmt.Sprintf("table %s has another header or row labels than results/%s.csv", t.id, t.id), n
			}
		}
	}
	return "", n
}

func readResults(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = string(b)
	}
	return out, nil
}

// readDigests reads sha256sum-style lines: "<hex digest>  <driver id>".
func readDigests(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		out[fields[1]] = fields[0]
	}
	return out, sc.Err()
}

// digestTables hashes a driver's rendered tables in order.
func digestTables(tables []rendered) string {
	h := sha256.New()
	for _, t := range tables {
		fmt.Fprintf(h, "%s\n%s\n%s\n", t.id, t.txt, t.csv)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// csvShape keeps a CSV table's header line and first column.
func csvShape(csv string) string {
	var sb strings.Builder
	for i, line := range strings.Split(csv, "\n") {
		if i == 0 {
			sb.WriteString(line)
		} else {
			label, _, _ := strings.Cut(line, ",")
			sb.WriteString(label)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
