package core

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"grouptravel/internal/consensus"
	"grouptravel/internal/dataset"
	"grouptravel/internal/profile"
	"grouptravel/internal/query"
	"grouptravel/internal/rng"
)

// The golden file pins the engine's output across versions: a change to
// the distance or membership arithmetic may move floats by rounding, but
// it must not change which POIs a package holds, and ObjVal may move only
// within goldenObjTol. Regenerate it only from a commit whose output is
// the reference, with
//
//	go test ./internal/core -run TestBuildsMatchGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/builds.golden from this build")

const (
	goldenPath    = "testdata/builds.golden"
	goldenPerCity = 600
	goldenObjTol  = 1e-9 // relative
)

// goldenSubsets are the plan mix's eight category subsets
// (acco, trans, rest, attr); with k 2–14 they make 104 clusterings a city.
var goldenSubsets = [][4]int{
	{1, 1, 1, 3}, {1, 0, 1, 3}, {0, 1, 1, 3}, {1, 1, 0, 3},
	{0, 0, 1, 3}, {1, 0, 0, 3}, {0, 0, 2, 0}, {1, 1, 2, 0},
}

// goldenBuilds runs goldenPerCity seeded builds on each of two TestSpec
// and two DefaultSpec cities: the plan mix, k 2–14, all four consensus
// methods, uniform and non-uniform groups of 2–12, bounded and unbounded
// budgets. Each build yields one line: an FNV-1a hash of its CIs' item
// ids in order and its ObjVal, or "err" for a build the engine refuses.
func goldenBuilds(t *testing.T) []string {
	t.Helper()
	specs := []dataset.Spec{
		dataset.TestSpec("GoldenA", 3),
		dataset.TestSpec("GoldenB", 4),
		dataset.DefaultSpec("GoldenParis", dataset.BuiltinCenters["Paris"], 5),
		dataset.DefaultSpec("GoldenRome", dataset.BuiltinCenters["Rome"], 6),
	}
	var lines []string
	for ci, spec := range specs {
		city, err := dataset.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(city)
		if err != nil {
			t.Fatal(err)
		}
		e.SetCacheCap(0) // keep all 104 clusterings warm
		src := rng.New(int64(100 + ci))
		for i := 0; i < goldenPerCity; i++ {
			c := goldenSubsets[src.Intn(len(goldenSubsets))]
			k := 2 + src.Intn(13)
			method := consensus.Methods[src.Intn(len(consensus.Methods))]
			size := 2 + src.Intn(11)
			var g *profile.Group
			if src.Bool(0.5) {
				g, err = profile.GenerateUniformGroup(city.Schema, size, src)
			} else {
				g, err = profile.GenerateNonUniformGroup(city.Schema, size, src)
			}
			if err != nil {
				t.Fatal(err)
			}
			budget := math.Inf(1)
			if src.Bool(0.5) {
				budget = 1.4 * float64(c[0]+c[1]+c[2]+c[3])
			}
			q := query.MustNew(c[0], c[1], c[2], c[3], budget)
			gp, err := consensus.GroupProfile(g, method)
			if err != nil {
				t.Fatal(err)
			}
			tp, err := e.Build(gp, q, DefaultParams(k))
			if err != nil {
				lines = append(lines, "err")
				continue
			}
			h := fnv.New32a()
			for _, c := range tp.CIs {
				for _, it := range c.Items {
					fmt.Fprintf(h, "%d,", it.ID)
				}
				h.Write([]byte{';'})
			}
			lines = append(lines, fmt.Sprintf("%08x %s", h.Sum32(), strconv.FormatFloat(tp.ObjVal, 'g', 15, 64)))
		}
	}
	return lines
}

// TestBuildsMatchGolden asserts that every golden build holds the same
// items as the reference run and an ObjVal within goldenObjTol of it.
func TestBuildsMatchGolden(t *testing.T) {
	got := goldenBuilds(t)
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# item-id hash and ObjVal of each build in goldenBuilds (internal/core/golden_test.go)\n")
		for _, l := range got {
			b.WriteString(l)
			b.WriteByte('\n')
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := sc.Text(); !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d builds, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		gh, gv, _ := strings.Cut(got[i], " ")
		wh, wv, _ := strings.Cut(want[i], " ")
		if gh == wh && gv != "" && wv != "" {
			g, err1 := strconv.ParseFloat(gv, 64)
			w, err2 := strconv.ParseFloat(wv, 64)
			if err1 == nil && err2 == nil && math.Abs(g-w) <= goldenObjTol*math.Abs(w) {
				continue
			}
		}
		if bad++; bad <= 10 {
			t.Errorf("build %d (city %d): got %q, golden %q", i, i/goldenPerCity, got[i], want[i])
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d builds differ from the golden file", bad, len(got))
	}
}
