package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},  // p50 leaves 9.5 beyond
		{20, 50}, // p50 leaves 10
		{39, 50}, // p75 leaves 9.75
		{40, 75},
		{99, 75}, // p90 leaves 9.9
		{100, 90},
		{199, 90}, // p95 leaves 9.95
		{200, 95},
		{999, 95}, // p99 leaves 9.99
		{1000, 99},
		{9999, 99}, // p99.9 leaves 9.999
		{10000, 99.9},
		{1 << 20, 99.9},
	} {
		if got := tailPercentile(c.n, tailCandidates, 10); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if !supported(1000, 99) || supported(999, 99) {
		t.Error("supported disagrees with tailPercentile at p99")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if median([]float64{1, 2, 3, 10}) != 2.5 || median(nil) != 0 {
		t.Error("median of an even count must average the middle pair; of none, 0")
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the
// metrics perfbench prints in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), perfbench %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if _, ok := simWorkloads[w.Name]; !ok && w.Name != "chamd-mix" {
			t.Errorf("BENCHMARK.json workload %q is unknown to perfbench", w.Name)
		}
	}
}
