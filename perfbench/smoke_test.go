package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestEveryMetricPresent runs every workload of BENCHMARK.json at a tiny
// scale, untraced and traced, and checks that each run passes its output
// check and reports exactly the metrics the file names, with their units.
func TestEveryMetricPresent(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, meta, err := run(options{
				workload: w.Name, seed: 7, seconds: 0.6, trace: trace,
				scale: 0.05, root: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s in %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			for _, key := range []string{"nproc", "gomaxprocs", "go", "commit", "seed", "subruns", "clients", "connections", "latency_count"} {
				if _, ok := meta[key]; !ok {
					t.Errorf("%s trace=%v: metadata %s missing", w.Name, trace, key)
				}
			}
		}
	}
}
