package main

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	runs := func(values ...float64) spread { return summarize(values) }
	steady := runs(100, 101, 99, 100, 100)
	cases := []struct {
		name         string
		base, cur    spread
		higherBetter bool
		bound        float64
		want         string
	}{
		{"within bound", steady, runs(103, 104, 102, 103, 103), false, 0.1, verdictSame},
		{"slower beyond bound", steady, runs(120, 121, 119, 120, 120), false, 0.1, verdictWorse},
		{"faster beyond bound", steady, runs(80, 81, 79, 80, 80), false, 0.1, verdictBetter},
		{"throughput drop", steady, runs(80, 81, 79, 80, 80), true, 0.1, verdictWorse},
		{"throughput gain", steady, runs(120, 121, 119, 120, 120), true, 0.1, verdictBetter},
		{"spread wider than bound", runs(70, 130, 100, 80, 120), runs(75, 125, 100, 85, 118), false, 0.1, verdictUnresolved},
		{"wide spread but every run better", runs(100, 140, 120, 110, 130), runs(50, 70, 60, 55, 65), false, 0.1, verdictBetter},
		{"no runs", steady, spread{}, false, 0.1, verdictUnresolved},
	}
	for _, c := range cases {
		if got := verdict(c.base, c.cur, c.higherBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReportsWorse(t *testing.T) {
	spec := &benchSpec{EndToEnd: []boundDef{{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	file := func(values ...float64) *macroFile {
		return &macroFile{Standard: true, Workloads: map[string]*workloadStats{
			"browse": {Metrics: map[string]*metricStats{"read_p50_ms": {Unit: "ms", spread: summarize(values)}}},
		}}
	}
	var out bytes.Buffer
	if compare(&out, spec, file(1, 1, 1), file(1.02, 1.01, 1.0)) {
		t.Errorf("a 1%% move reported worse:\n%s", out.String())
	}
	out.Reset()
	if !compare(&out, spec, file(1, 1, 1), file(1.5, 1.5, 1.5)) || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 50%% slowdown not reported worse:\n%s", out.String())
	}
}

// -out files must survive a percentile without support (NaN) and read
// back for -compare.
func TestMacroFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	if err := os.WriteFile(path, []byte(`{"Benchmark_X": {"ns": 1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	mf := &macroFile{Standard: true, Workloads: map[string]*workloadStats{
		"plan": {Metrics: map[string]*metricStats{
			"read_p50_ms":  {Unit: "ms", spread: summarize([]float64{0.2, 0.3})},
			"build_p99_ms": {Unit: "ms", spread: summarize([]float64{math.NaN()})},
		}},
	}}
	if err := mergeInto(path, mf); err != nil {
		t.Fatal(err)
	}
	back, err := readMacro(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Workloads["plan"].Metrics["read_p50_ms"].Median; got != 0.25 {
		t.Errorf("median read back as %v, want 0.25", got)
	}
	raw, _ := os.ReadFile(path)
	if !strings.Contains(string(raw), "Benchmark_X") {
		t.Errorf("merge dropped the file's other keys:\n%s", raw)
	}
}
