package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json -compare reads: each
// end-to-end metric's direction and the share of the baseline median by
// which it may worsen.
type benchSpec struct {
	EndToEnd []boundDef `json:"end_to_end"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// macroFile is what -out writes under the "macro" key.
type macroFile struct {
	Schema    string                    `json:"schema"`
	Standard  bool                      `json:"standard"`
	WALSync   string                    `json:"walSync"`
	Nproc     int                       `json:"nproc"`
	Seconds   float64                   `json:"seconds"`
	Seeds     []int64                   `json:"seeds"`
	Workloads map[string]*workloadStats `json:"workloads"`
}

type workloadStats struct {
	Rate    float64                 `json:"rate"`
	Invalid []string                `json:"invalid,omitempty"`
	Metrics map[string]*metricStats `json:"metrics"`
}

type metricStats struct {
	Unit string `json:"unit"`
	spread
}

// MarshalJSON writes NaN, a percentile too few samples supported, as
// null; encoding/json refuses NaN.
func (m *metricStats) MarshalJSON() ([]byte, error) {
	vals := make([]string, len(m.Values))
	for i, v := range m.Values {
		vals[i] = formatValue(v)
	}
	return fmt.Appendf(nil, `{"unit":%q,"median":%s,"q1":%s,"q3":%s,"min":%s,"max":%s,"values":[%s]}`,
		m.Unit, formatValue(m.Median), formatValue(m.Q1), formatValue(m.Q3),
		formatValue(m.Min), formatValue(m.Max), strings.Join(vals, ",")), nil
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func readMacro(path string) (*macroFile, error) {
	var doc struct {
		Macro *macroFile `json:"macro"`
	}
	if err := readJSON(path, &doc); err != nil {
		return nil, err
	}
	if doc.Macro == nil || doc.Macro.Workloads == nil {
		return nil, fmt.Errorf("%s: no \"macro\" results", path)
	}
	return doc.Macro, nil
}

// Verdicts of one metric on one workload.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict compares a change's runs with the baseline's. A metric is
// worse when its median moved the wrong way by more than the bound, and
// unresolved when either side's quartile spread is wider than the bound
// — unless every run of the change beats every run of the baseline.
func verdict(base, cur spread, higherBetter bool, bound float64) string {
	if len(base.Values) == 0 || len(cur.Values) == 0 || base.Median == 0 {
		return verdictUnresolved
	}
	worse := (cur.Median - base.Median) / math.Abs(base.Median)
	if higherBetter {
		worse = -worse
	}
	allBetter := true
	for _, c := range cur.Values {
		for _, b := range base.Values {
			if (higherBetter && c <= b) || (!higherBetter && c >= b) {
				allBetter = false
			}
		}
	}
	switch {
	case math.Max(base.iqrShare(), cur.iqrShare()) > bound:
		if allBetter {
			return verdictBetter
		}
		return verdictUnresolved
	case worse > bound:
		return verdictWorse
	case worse < -bound:
		return verdictBetter
	}
	return verdictSame
}

// compare prints a verdict per workload and gated metric and reports
// whether any metric got worse.
func compare(w io.Writer, spec *benchSpec, base, cur *macroFile) (worse bool) {
	if base.Standard != cur.Standard || !cur.Standard {
		fmt.Fprintln(w, "compare: warning: at least one side is a non-standard run")
	}
	names := make([]string, 0, len(cur.Workloads))
	for name := range cur.Workloads {
		if base.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b, c := base.Workloads[name], cur.Workloads[name]
		for _, m := range spec.EndToEnd {
			bs, cs := b.Metrics[m.Name], c.Metrics[m.Name]
			if bs == nil || cs == nil {
				fmt.Fprintf(w, "%-10s %-18s %s (missing)\n", name, m.Name, verdictUnresolved)
				continue
			}
			v := verdict(bs.spread, cs.spread, m.Better == "higher", m.Bound)
			worse = worse || v == verdictWorse
			fmt.Fprintf(w, "%-10s %-18s %-10s base %s  new %s %s  (bound %g)\n",
				name, m.Name, v, formatValue(bs.Median), formatValue(cs.Median), m.Unit, m.Bound)
		}
	}
	return worse
}
