// Command perfbench is the repository's end-to-end benchmark. One run sets
// one workload up three times (sub-runs), drives each set-up with two
// closed-loop clients for a third of the run, checks the answers against a
// cache-less engine over the same files and prints one JSON result as its
// last line:
//
//	bash perfbench/run.sh --workload hit-local --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// the loop alternates untraced and traced windows, a ladder pass follows
// (ladder.go), and the result holds the per-layer metrics. The line before
// the result holds the run's metadata. run.sh builds the command from
// source and runs it from the root of a checkout; BENCHMARK.json lists the
// workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // data size relative to the benchmark's (tests shrink it)
	root     string  // checkout root; scratch files go under .bench_build
}

// subruns is the number of sub-runs per run, each with its own set-up.
const subruns = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	o := options{scale: 1, root: "."}
	var trace int
	fl.StringVar(&o.workload, "workload", "", "workload: hit-local, cold-spill or served-append")
	fl.Int64Var(&o.seed, "seed", 1, "seed of the generated files and queries")
	fl.Float64Var(&o.seconds, "seconds", 10, "seconds the closed loop runs")
	fl.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	res, meta, err := run(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: output check failed")
		return 3
	}
	return 0
}

// run measures subruns sub-runs. Each sets the workload up afresh from
// a seed of its own, derived from o.seed, drives it for its share of
// o.seconds and checks it. The engine's reactive choices (admission,
// layout, subsumption, eviction) differ from one set of inputs to the
// next, so one set-up would carry its luck into every metric. Rates,
// memory and set-up time are therefore medians over the sub-runs; latency
// percentiles are taken over the pooled samples, so that p99 keeps enough
// of them.
func run(o options) (*result, map[string]any, error) {
	setup, ok := workloads[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive")
	}
	build := filepath.Join(o.root, ".bench_build")
	work := filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(work)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	per := time.Duration(o.seconds * float64(time.Second) / float64(subruns))
	all := &loopResult{}
	var qps, heap, cacheMB, setupS []float64
	var subs []map[string]any
	var lad *ladderResult
	checks, bad, conns, served := 0, 0, 0, false
	for k := 0; k < subruns; k++ {
		so := o
		so.seed = o.seed*16 + int64(k)
		sub, err := subRun(setup, filepath.Join(work, fmt.Sprint(k)), so, per, tr, o.trace && k == subruns-1)
		if err != nil {
			return nil, nil, err
		}
		all.add(sub.loop)
		qps = append(qps, float64(sub.loop.attempted-sub.loop.failed)/sub.loop.elapsed.Seconds())
		heap = append(heap, sub.loop.heapMB)
		cacheMB = append(cacheMB, sub.loop.cacheMB)
		setupS = append(setupS, sub.setup.Seconds())
		checks += sub.checks
		bad += sub.bad
		conns, served = sub.conns, sub.served
		if sub.lad != nil {
			lad = sub.lad
		}
		subs = append(subs, map[string]any{
			"seed":        so.seed,
			"files_bytes": sub.files,
			"working_set": sub.workingSet,
			"ram_budget":  sub.ramBudget,
			"fits_in_ram": sub.ramBudget == 0 || sub.workingSet <= sub.ramBudget,
			"setup_s":     sub.setup.Seconds(),
			"qps":         qps[k],
			"queries":     sub.loop.attempted,
		})
	}
	sort.Float64s(all.lat)

	e2e := map[string]metric{
		"qps":      {median(qps), "1/s"},
		"p50_ms":   {finite(percentile(all.lat, 0.50)), "ms"},
		"p99_ms":   {finite(percentile(all.lat, 0.99)), "ms"},
		"setup_s":  {median(setupS), "s"},
		"heap_mb":  {median(heap), "MB"},
		"cache_mb": {median(cacheMB), "MB"},
	}
	res := &result{
		Correct:   bad == 0 && all.failed == 0,
		Attempted: all.attempted + int64(checks),
		Failed:    all.failed + int64(bad),
		Metrics:   e2e,
	}
	if o.trace {
		res.Metrics = layerMetrics(all, lad, tr, served)
		dir := filepath.Join(build, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		if err := tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))); err != nil {
			return nil, nil, err
		}
	}

	meta := map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit(o.root),
		"clients":       clients,
		"connections":   conns,
		"latency_count": len(all.lat),
		"checked":       checks,
		"subruns":       subs,
		"end_to_end":    e2e,
	}
	if o.trace {
		meta["traced_requests"] = len(all.tracedReqs)
	}
	return res, meta, nil
}

// subResult is what one sub-run measured.
type subResult struct {
	setup                 time.Duration
	loop                  *loopResult
	checks, bad           int
	lad                   *ladderResult
	files                 map[string]int64
	workingSet, ramBudget int64
	conns                 int
	served                bool
}

// subRun sets the workload up in dir, drives it for d, optionally runs the
// ladder, checks the answers and tears the set-up down.
func subRun(setup setupFunc, dir string, o options, d time.Duration, tr *tracer, ladder bool) (*subResult, error) {
	t0 := time.Now()
	in, err := setup(dir, o, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer os.RemoveAll(dir)
	defer in.close()
	sub := &subResult{
		setup:      time.Since(t0),
		files:      in.files,
		workingSet: in.workingSet,
		ramBudget:  in.ramBudget,
		conns:      in.conns,
		served:     in.router != nil,
	}
	if sub.loop, err = runLoop(in, d, tr); err != nil {
		return nil, err
	}
	if ladder {
		if sub.lad, err = runLadder(in); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	if sub.checks, sub.bad, err = in.verify(sub.loop.kept); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	return sub, nil
}

// finite reports an infinite percentile (failures count as infinitely
// slow) as the largest float, since JSON has no infinity.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// commit names the source the benchmark measured: the git HEAD when the
// checkout is a repository, otherwise a digest of the Go sources.
func commit(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				return strings.TrimSpace(string(id))
			}
		}
		return ref
	}
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
