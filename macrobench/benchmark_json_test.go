package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// BENCHMARK.json at the repository root names the workloads and metrics
// this program reports; the two must not drift apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := "command end_to_end paths per_layer run_seconds workloads"; strings.Join(got, " ") != want {
		t.Errorf("top-level keys %v, want %s", got, want)
	}

	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if strings.Join(b.Command, " ") != "bash macrobench/run.sh" || strings.Join(b.Paths, " ") != "macrobench" {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds != stdSeconds {
		t.Errorf("run_seconds %v, want the standard window %d", b.RunSeconds, stdSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	check := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics listed, the program reports %d", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: listed %s (%s), program reports %s (%s)", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eMetrics, true)
	check("per_layer", b.PerLayer, layerMetrics, false)

	// Set-up carries the largest bound, so work moved into set-up shows.
	for _, m := range b.EndToEnd {
		if m.Name != "setup_s" && m.Bound != nil && b.EndToEnd[0].Bound != nil && *m.Bound > *b.EndToEnd[0].Bound {
			t.Errorf("%s bound %v exceeds setup_s's", m.Name, *m.Bound)
		}
	}
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Unit != "s" || b.EndToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better")
	}
}
