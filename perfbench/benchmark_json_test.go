package main

import (
	"encoding/json"
	"os"
	"testing"

	"stencilsched"
)

func compiledNames(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, cs := range stencilsched.CompiledSchedules() {
		out = append(out, cs.Name)
	}
	if len(out) == 0 {
		t.Fatal("no compiled schedules")
	}
	return out
}

// TestBenchmarkJSONMatchesCode keeps ../BENCHMARK.json and this
// command's workloads and metric lists in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, code %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		kind      string
		got, want []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", c.kind, len(c.got), len(c.want))
		}
		for i := range min(len(c.got), len(c.want)) {
			if c.got[i] != c.want[i] {
				t.Errorf("%s %d: BENCHMARK.json %v, code %v", c.kind, i, c.got[i], c.want[i])
			}
		}
	}
}
