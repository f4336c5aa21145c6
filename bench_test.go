package grouptravel

// Benchmarks regenerating every table and figure of the paper, plus
// substrate and ablation benches for the design choices DESIGN.md calls
// out. Run with:
//
//	go test -bench=. -benchmem
//
// Table/figure benches run at reduced scale so the full suite stays in
// seconds; cmd/experiments regenerates the paper-scale numbers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grouptravel/internal/consensus"
	"grouptravel/internal/core"
	"grouptravel/internal/dataset"
	"grouptravel/internal/experiments"
	"grouptravel/internal/fuzzy"
	"grouptravel/internal/geo"
	"grouptravel/internal/interact"
	"grouptravel/internal/lda"
	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
	"grouptravel/internal/query"
	"grouptravel/internal/rng"
	"grouptravel/internal/route"
	"grouptravel/internal/router"
	"grouptravel/internal/server"
	"grouptravel/internal/sim"
	"grouptravel/internal/store"
	"grouptravel/internal/tags"
)

var (
	benchOnce   sync.Once
	benchCity   *dataset.City
	benchSecond *dataset.City
	benchEngine *core.Engine
	benchGroup  *profile.Group
	benchGP     *profile.Profile
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		if benchCity, err = dataset.Generate(dataset.TestSpec("BenchParis", 1)); err != nil {
			panic(err)
		}
		spec := dataset.TestSpec("BenchBarcelona", 2)
		spec.Center = geo.Point{Lat: 41.3874, Lon: 2.1686}
		if benchSecond, err = dataset.Generate(spec); err != nil {
			panic(err)
		}
		if benchEngine, err = core.NewEngine(benchCity); err != nil {
			panic(err)
		}
		if benchGroup, err = profile.GenerateUniformGroup(benchCity.Schema, 5, rng.New(3)); err != nil {
			panic(err)
		}
		if benchGP, err = consensus.GroupProfile(benchGroup, consensus.PairwiseDis); err != nil {
			panic(err)
		}
	})
}

func benchConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.City = benchCity
	cfg.SecondCity = benchSecond
	cfg.GroupsPerCell = 2
	cfg.StudyGroupsPerCell = 1
	return cfg
}

// --- §3.2 distance claim (haversine vs equirectangular) ---

var distSink float64

func distancePoints() (a, b []geo.Point) {
	src := rng.New(7)
	n := 1024
	a = make([]geo.Point, n)
	b = make([]geo.Point, n)
	for i := 0; i < n; i++ {
		a[i] = geo.Point{Lat: src.Range(48.80, 48.92), Lon: src.Range(2.25, 2.42)}
		b[i] = geo.Point{Lat: src.Range(48.80, 48.92), Lon: src.Range(2.25, 2.42)}
	}
	return a, b
}

func BenchmarkHaversine(b *testing.B) {
	pa, pb := distancePoints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distSink += geo.Haversine(pa[i%len(pa)], pb[i%len(pb)])
	}
}

func BenchmarkEquirectangular(b *testing.B) {
	pa, pb := distancePoints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distSink += geo.Equirectangular(pa[i%len(pa)], pb[i%len(pb)])
	}
}

// --- Figure 1 / core operation: building one travel package ---

func BenchmarkBuildPackage(b *testing.B) {
	benchSetup(b)
	params := core.DefaultParams(5)
	for i := 0; i < b.N; i++ {
		// Vary the seed so the clustering memo does not trivialize the
		// bench, matching how experiments use the engine.
		params.Seed = int64(i % 16)
		if _, err := benchEngine.Build(benchGP, query.Default(), params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildPackageNonPersonalized(b *testing.B) {
	benchSetup(b)
	params := core.DefaultParams(5)
	for i := 0; i < b.N; i++ {
		params.Seed = int64(i % 16)
		if _, err := benchEngine.Build(nil, query.Default(), params); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: refinement rounds (the cluster↔CI alternation of KFC).
func BenchmarkBuildRefineRounds0(b *testing.B) { benchRefine(b, 0) }
func BenchmarkBuildRefineRounds2(b *testing.B) { benchRefine(b, 2) }
func BenchmarkBuildRefineRounds5(b *testing.B) { benchRefine(b, 5) }

func benchRefine(b *testing.B, rounds int) {
	benchSetup(b)
	params := core.DefaultParams(5)
	params.RefineRounds = rounds
	for i := 0; i < b.N; i++ {
		params.Seed = int64(i % 16)
		if _, err := benchEngine.Build(benchGP, query.Default(), params); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2: synthetic experiment ---

func BenchmarkTable2(b *testing.B) {
	benchSetup(b)
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 3: median-user agreement ---

func BenchmarkTable3(b *testing.B) {
	benchSetup(b)
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables 4 & 5: simulated personalization study ---

func BenchmarkTable4And5(b *testing.B) {
	benchSetup(b)
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.RunTables4And5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables 6 & 7: customization study (Paris → Barcelona) ---

func BenchmarkTable6And7(b *testing.B) {
	benchSetup(b)
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.RunTables6And7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate benches ---

func BenchmarkFuzzyCluster(b *testing.B) {
	benchSetup(b)
	pts := make([]geo.Point, 0, benchCity.POIs.Len())
	for _, p := range benchCity.POIs.All() {
		pts = append(pts, p.Coord)
	}
	norm := benchCity.POIs.Normalizer()
	cfg := fuzzy.DefaultConfig(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i % 16)
		if _, err := fuzzy.Cluster(pts, norm, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLDATrain(b *testing.B) {
	corpus := tags.NewCorpus()
	src := rng.New(11)
	for d := 0; d < 200; d++ {
		th := tags.RestaurantThemes[src.Intn(len(tags.RestaurantThemes))]
		text := ""
		for w := 0; w < 10; w++ {
			text += th.Words[src.Intn(len(th.Words))] + " "
		}
		corpus.AddText(text)
	}
	cfg := lda.DefaultConfig(6)
	cfg.Iterations = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lda.Train(corpus, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConsensus(b *testing.B) {
	benchSetup(b)
	large, err := profile.GenerateUniformGroup(benchCity.Schema, 100, rng.New(13))
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range consensus.Methods {
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := consensus.GroupProfile(large, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: grid index vs brute force for the REPLACE operator's
// nearest-neighbor query.
func BenchmarkNearestGrid(b *testing.B) {
	benchSetup(b)
	q := geo.Point{Lat: 48.8566, Lon: 2.3522}
	for i := 0; i < b.N; i++ {
		benchCity.POIs.Nearest(q, 5, nil, nil)
	}
}

func BenchmarkNearestBruteForce(b *testing.B) {
	benchSetup(b)
	q := geo.Point{Lat: 48.8566, Lon: 2.3522}
	all := benchCity.POIs.All()
	for i := 0; i < b.N; i++ {
		best, bestD := -1, 1e18
		for j, p := range all {
			if d := geo.Equirectangular(q, p.Coord); d < bestD {
				best, bestD = j, d
			}
		}
		_ = best
	}
}

// --- Customization session (Figure 3 operators + refinement) ---

func BenchmarkCustomizationSession(b *testing.B) {
	benchSetup(b)
	tp, err := benchEngine.Build(benchGP, query.Default(), core.DefaultParams(4))
	if err != nil {
		b.Fatal(err)
	}
	opts := sim.DefaultCustomizeOptions()
	for i := 0; i < b.N; i++ {
		sess, err := interact.NewSession(benchCity, tp)
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.SimulateCustomization(sess, benchGroup, opts, rng.New(int64(i))); err != nil {
			b.Fatal(err)
		}
		if _, err := interact.RefineBatch(benchGP, sess.Log()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Eq. 5 sample size (closed form; here for completeness) ---

func BenchmarkSampleSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSampleSizeReport(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: item repetition across CIs (§3.2 fuzzy-clustering choice) ---

func BenchmarkBuildRepeatable(b *testing.B) { benchDistinct(b, false) }
func BenchmarkBuildDistinct(b *testing.B)   { benchDistinct(b, true) }

func benchDistinct(b *testing.B, distinct bool) {
	benchSetup(b)
	params := core.DefaultParams(4)
	params.DistinctItems = distinct
	for i := 0; i < b.N; i++ {
		params.Seed = int64(i % 16)
		if _, err := benchEngine.Build(benchGP, query.Default(), params); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: tension sweep and extended consensus methods ---

func BenchmarkTensionSweep(b *testing.B) {
	benchSetup(b)
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTensionSweep(cfg, []float64{0, 1, 5}, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConsensusAblation(b *testing.B) {
	benchSetup(b)
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunConsensusAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel package construction on one shared engine ---
//
// The engine is concurrency-safe: N goroutines hammer one Engine over the
// 16 distinct clusterings the experiments use. The first pass per
// clustering misses the singleflight cache, everything after shares it —
// the benchmark asserts each distinct clustering was computed exactly once.

func BenchmarkBuildPackageParallel1(b *testing.B) { benchBuildParallel(b, 1) }
func BenchmarkBuildPackageParallel4(b *testing.B) { benchBuildParallel(b, 4) }
func BenchmarkBuildPackageParallel8(b *testing.B) { benchBuildParallel(b, 8) }

func benchBuildParallel(b *testing.B, goroutines int) {
	benchSetup(b)
	engine, err := core.NewEngine(benchCity)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the 16 clusterings outside the timer so every variant measures
	// pure build throughput over a hot cache.
	const seeds = 16
	for s := 0; s < seeds; s++ {
		params := core.DefaultParams(5)
		params.Seed = int64(s)
		if _, err := engine.Build(benchGP, query.Default(), params); err != nil {
			b.Fatal(err)
		}
	}
	if misses := engine.CacheMisses(); misses != seeds {
		b.Fatalf("cache misses = %d, want %d (each clustering computed exactly once)", misses, seeds)
	}
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			params := core.DefaultParams(5)
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				params.Seed = i % seeds
				if _, err := engine.Build(benchGP, query.Default(), params); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if misses := engine.CacheMisses(); misses != seeds {
		b.Fatalf("parallel builds re-clustered: misses = %d, want %d", misses, seeds)
	}
}

// --- Server throughput: concurrent package builds over HTTP ---

func BenchmarkServerThroughput(b *testing.B) {
	benchSetup(b)
	srv, err := server.New(benchCity)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One group for all requests.
	ratings := []map[string][]float64{}
	for m := 0; m < 3; m++ {
		member := map[string][]float64{}
		for _, c := range poi.Categories {
			dim := benchCity.Schema.Dim(c)
			v := make([]float64, dim)
			for j := range v {
				v[j] = float64((j + m) % 6)
			}
			member[c.String()] = v
		}
		ratings = append(ratings, member)
	}
	gid := postJSON(b, ts.URL+"/api/groups", map[string]any{"members": ratings}, http.StatusCreated)

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			body := map[string]any{"group": gid, "consensus": "pairwise", "k": 3}
			postJSON(b, ts.URL+"/api/packages", body, http.StatusCreated)
		}
	})
}

// --- Multi-city throughput: the registry layer under concurrent load ---
//
// N cities × concurrent package builds through the /cities tree. Compared
// with BenchmarkServerThroughput (one city, legacy routes) this measures
// the registry overhead: city resolution, pinning and per-city state
// lookup on every request.

var (
	benchMCOnce   sync.Once
	benchMCCities []*dataset.City
	benchMCDir    string
)

func benchMultiCitySetup(b *testing.B) {
	b.Helper()
	benchMCOnce.Do(func() {
		dir, err := os.MkdirTemp("", "grouptravel-bench-cities-*")
		if err != nil {
			panic(err)
		}
		for i, name := range []string{"Mc0", "Mc1", "Mc2"} {
			c, err := dataset.Generate(dataset.TestSpec(name, int64(50+i)))
			if err != nil {
				panic(err)
			}
			benchMCCities = append(benchMCCities, c)
			f, err := os.Create(filepath.Join(dir, strings.ToLower(name)+".json"))
			if err != nil {
				panic(err)
			}
			if err := c.SaveJSON(f); err != nil {
				panic(err)
			}
			f.Close()
		}
		benchMCDir = dir
	})
}

func BenchmarkMultiCityThroughput(b *testing.B) {
	benchMultiCitySetup(b)
	srv, err := server.NewMultiCity(server.Options{DataDir: benchMCDir})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One group per city, registered up front.
	keys := []string{"mc0", "mc1", "mc2"}
	gids := make([]int, len(keys))
	for i, key := range keys {
		ratings := []map[string][]float64{}
		for m := 0; m < 3; m++ {
			member := map[string][]float64{}
			for _, c := range poi.Categories {
				dim := benchMCCities[i].Schema.Dim(c)
				v := make([]float64, dim)
				for j := range v {
					v[j] = float64((j + m) % 6)
				}
				member[c.String()] = v
			}
			ratings = append(ratings, member)
		}
		gids[i] = postJSON(b, ts.URL+"/cities/"+key+"/groups", map[string]any{"members": ratings}, http.StatusCreated)
	}

	b.ResetTimer()
	var rr atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(rr.Add(1)) % len(keys)
			body := map[string]any{"group": gids[i], "consensus": "pairwise", "k": 3}
			postJSON(b, ts.URL+"/cities/"+keys[i]+"/packages", body, http.StatusCreated)
		}
	})
}

// postJSON posts a JSON body and returns the created resource's id.
func postJSON(b *testing.B, url string, body any, wantStatus int) int {
	b.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b.Fatalf("%s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		b.Fatal(err)
	}
	return out.ID
}

// --- Parallel synthetic experiment scaling ---
//
// Workers share one engine (and its cluster cache) per RunTable2 call, so
// this measures the harness end to end: sequential task generation plus
// parallel builds over a shared, singleflight-guarded cache.

func BenchmarkTable2Parallel1(b *testing.B) { benchTable2Parallel(b, 1) }
func BenchmarkTable2Parallel4(b *testing.B) { benchTable2Parallel(b, 4) }
func BenchmarkTable2Parallel8(b *testing.B) { benchTable2Parallel(b, 8) }

func benchTable2Parallel(b *testing.B, workers int) {
	benchSetup(b)
	cfg := benchConfig()
	cfg.GroupsPerCell = 4
	cfg.Parallelism = workers
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Route ordering (day-plan extension) ---

func BenchmarkPlanDay(b *testing.B) {
	benchSetup(b)
	tp, err := benchEngine.Build(benchGP, query.Default(), core.DefaultParams(4))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.PlanDay(tp.CIs[i%len(tp.CIs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Persistence round trip ---

func BenchmarkPackageSaveLoad(b *testing.B) {
	benchSetup(b)
	tp, err := benchEngine.Build(benchGP, query.Default(), core.DefaultParams(4))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := store.SavePackage(&buf, tp); err != nil {
			b.Fatal(err)
		}
		if _, err := store.LoadPackage(&buf, benchCity); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Mutation persistence: WAL append ---
//
// A mutation's durable write is one fsynced write-ahead-log append —
// O(1), independent of how many packages the city holds (the snapshot
// rewrite it replaced was O(city state); that comparison is settled and
// no longer re-measured).

func BenchmarkMutationPersistence(b *testing.B) {
	benchSetup(b)
	tp, err := benchEngine.Build(benchGP, query.Default(), core.DefaultParams(3))
	if err != nil {
		b.Fatal(err)
	}
	// One customization op — the archetypal mutation a busy city persists.
	op := interact.Op{
		Kind: interact.OpRemove, Member: 0, CIIndex: 0,
		Removed: []*poi.POI{tp.CIs[0].Items[0]},
	}
	b.Run("walAppend", func(b *testing.B) {
		w, err := store.OpenWAL(b.TempDir(), "bench", store.WALSyncPolicy{Mode: store.WALSyncAlways})
		if err != nil {
			b.Fatal(err)
		}
		rec := store.CustomOpRecord(2, op, tp.CIs[0])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		w.Close()
	})
}

// --- Weighted consensus ---

func BenchmarkConsensusWeighted(b *testing.B) {
	benchSetup(b)
	weights := make([]float64, benchGroup.Size())
	for i := range weights {
		weights[i] = 1 + float64(i)
	}
	for i := 0; i < b.N; i++ {
		if _, err := consensus.GroupProfileWeighted(benchGroup, consensus.PairwiseDis, weights); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Log shipping: follower apply throughput ---

// BenchmarkLogShipping measures how fast a follower replica drains a
// primary's write-ahead log: records/sec applied end-to-end — HTTP fetch,
// frame CRC verification, applier validation, materialization into the
// serving registries, and the follower's own durable WAL append. Each
// iteration boots a cold follower and catches it up on the same primary
// history.
func BenchmarkLogShipping(b *testing.B) {
	benchSetup(b)
	primary, err := server.NewMultiCity(server.Options{
		Cities: []*dataset.City{benchCity}, SnapshotDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()

	ratings := []map[string][]float64{}
	for m := 0; m < 3; m++ {
		member := map[string][]float64{}
		for _, c := range poi.Categories {
			dim := benchCity.Schema.Dim(c)
			v := make([]float64, dim)
			for j := range v {
				v[j] = float64((j + m) % 6)
			}
			member[c.String()] = v
		}
		ratings = append(ratings, member)
	}
	gid := postJSON(b, ts.URL+"/api/groups", map[string]any{"members": ratings}, http.StatusCreated)
	pid := postJSON(b, ts.URL+"/api/packages", map[string]any{"group": gid, "consensus": "pairwise", "k": 3}, http.StatusCreated)

	// A long run of cheap customization records: alternately remove and
	// re-add one POI, one WAL record each.
	resp, err := http.Get(fmt.Sprintf("%s/api/packages/%d", ts.URL, pid))
	if err != nil {
		b.Fatal(err)
	}
	var pkg struct {
		Days []struct {
			Items []struct{ ID int }
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&pkg); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	victim := pkg.Days[0].Items[0].ID
	const opRecords = 128
	for i := 0; i < opRecords; i++ {
		op := "remove"
		if i%2 == 1 {
			op = "add"
		}
		postJSON(b, fmt.Sprintf("%s/api/packages/%d/ops", ts.URL, pid),
			map[string]any{"member": 0, "op": op, "ci": 0, "poi": victim}, http.StatusOK)
	}
	const total = 2 + opRecords // group + package + ops
	key := strings.ToLower(benchCity.Name)

	b.ResetTimer()
	var applied int64
	for i := 0; i < b.N; i++ {
		f, err := server.NewMultiCity(server.Options{
			Cities: []*dataset.City{benchCity}, SnapshotDir: b.TempDir(),
			Follow: ts.URL, FollowPoll: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Follower().CatchUp(2 * time.Minute); err != nil {
			b.Fatal(err)
		}
		lag, _ := f.Follower().Lag(key)
		if lag.AppliedSeq < total {
			b.Fatalf("follower applied %d of %d records", lag.AppliedSeq, total)
		}
		applied += lag.AppliedSeq
		f.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(applied)/b.Elapsed().Seconds(), "records/s")
}

// --- Push replication: streaming follower drain throughput ---

// BenchmarkPushReplication measures the push-based replication path end
// to end: a streaming follower (its poll interval set far too long to
// ever matter) connects, receives the primary's history over one stream
// response, and applies it pipelined — frames decode off the wire
// concurrently with apply, and each apply batch lands in the follower's
// log under a single group-commit fsync instead of one per frame.
// Directly comparable with BenchmarkLogShipping's records/s: the same
// cold-follower-per-iteration structure over the same kind of history;
// the delta is batched persistence plus streamed decode.
func BenchmarkPushReplication(b *testing.B) {
	pushReplicationBench(b, false)
}

// BenchmarkPushReplicationEpochFenced is the same drain with the
// replication epoch active on the wire: the primary owns term 1 (seeded
// on disk before boot, owner == its advertised URL so it stays
// writable), so every batch header carries X-GT-Epoch, every follower
// request stamps it back, and both ends run the staleness check per
// exchange. The delta against BenchmarkPushReplication is the fencing
// machinery's whole wire cost — it should be noise.
func BenchmarkPushReplicationEpochFenced(b *testing.B) {
	pushReplicationBench(b, true)
}

func pushReplicationBench(b *testing.B, withEpoch bool) {
	benchSetup(b)
	intervalSync, err := store.ParseWALSync("interval")
	if err != nil {
		b.Fatal(err)
	}
	primaryDir := b.TempDir()
	opts := server.Options{
		Cities: []*dataset.City{benchCity}, SnapshotDir: primaryDir,
		WALSync: intervalSync,
	}
	if withEpoch {
		opts.Advertise = "http://bench-primary:8080"
		if err := store.WriteEpoch(primaryDir, strings.ToLower(benchCity.Name),
			store.Epoch{Epoch: 1, Primary: opts.Advertise}); err != nil {
			b.Fatal(err)
		}
	}
	primary, err := server.NewMultiCity(opts)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()

	ratings := []map[string][]float64{}
	for m := 0; m < 3; m++ {
		member := map[string][]float64{}
		for _, c := range poi.Categories {
			dim := benchCity.Schema.Dim(c)
			v := make([]float64, dim)
			for j := range v {
				v[j] = float64((j + m) % 6)
			}
			member[c.String()] = v
		}
		ratings = append(ratings, member)
	}
	gid := postJSON(b, ts.URL+"/api/groups", map[string]any{"members": ratings}, http.StatusCreated)

	// A wider history than LogShipping's: several packages, each with its
	// own run of alternating remove/add customization records.
	const packages = 8
	const opsPerPackage = 96
	for p := 0; p < packages; p++ {
		pid := postJSON(b, ts.URL+"/api/packages", map[string]any{"group": gid, "consensus": "pairwise", "k": 3}, http.StatusCreated)
		resp, err := http.Get(fmt.Sprintf("%s/api/packages/%d", ts.URL, pid))
		if err != nil {
			b.Fatal(err)
		}
		var pkg struct {
			Days []struct {
				Items []struct{ ID int }
			}
		}
		if err := json.NewDecoder(resp.Body).Decode(&pkg); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		victim := pkg.Days[0].Items[0].ID
		for i := 0; i < opsPerPackage; i++ {
			op := "remove"
			if i%2 == 1 {
				op = "add"
			}
			postJSON(b, fmt.Sprintf("%s/api/packages/%d/ops", ts.URL, pid),
				map[string]any{"member": 0, "op": op, "ci": 0, "poi": victim}, http.StatusOK)
		}
	}
	const total = 1 + packages + packages*opsPerPackage
	key := strings.ToLower(benchCity.Name)

	b.ResetTimer()
	var applied int64
	for i := 0; i < b.N; i++ {
		f, err := server.NewMultiCity(server.Options{
			Cities: []*dataset.City{benchCity}, SnapshotDir: b.TempDir(),
			Follow: ts.URL, FollowPoll: time.Hour, // wakeups only: a poll could never land in time
		})
		if err != nil {
			b.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Minute)
		for {
			if l, ok := f.Follower().Lag(key); ok && l.AppliedSeq >= total {
				applied += l.AppliedSeq
				break
			}
			if time.Now().After(deadline) {
				l, _ := f.Follower().Lag(key)
				b.Fatalf("follower applied %d of %d records", l.AppliedSeq, total)
			}
			time.Sleep(100 * time.Microsecond)
		}
		f.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(applied)/b.Elapsed().Seconds(), "records/s")
}

// --- Front-tier routing: proxy overhead per read ---

// BenchmarkRouterProxy measures what the consistent-hash front tier
// costs on the read path: the same GET served directly by a backend vs
// routed through the router (ring lookup, health-view snapshot,
// candidate selection, one extra HTTP hop, response relay). The delta is
// the price of follower fan-out and read-your-writes pinning.
//
// Alloc ledger for the routed row (same machine, same workload): 205
// allocs/op when forward() formatted a URL string for http.NewRequest to
// parse back apart, 192 allocs/op with the outbound request assembled
// directly over a cached parsed base URL. The remaining gap to direct
// (~74) is the second net/http round trip itself — transport bookkeeping
// and the relayed header set — not request construction.
func BenchmarkRouterProxy(b *testing.B) {
	benchSetup(b)
	srv, err := server.NewMultiCity(server.Options{Cities: []*dataset.City{benchCity}})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rt, err := router.New(router.Options{
		Topology:     &router.Topology{Shards: []router.Shard{{Name: "s1", Nodes: []string{ts.URL}}}},
		PollInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	rt.Poll()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	path := "/cities/" + strings.ToLower(benchCity.Name) + "/pois?k=5"
	get := func(b *testing.B, url string) {
		for i := 0; i < b.N; i++ {
			resp, err := http.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("%s: status %d", url, resp.StatusCode)
			}
		}
	}
	b.Run("direct", func(b *testing.B) { get(b, ts.URL+path) })
	b.Run("routed", func(b *testing.B) { get(b, rts.URL+path) })
}

// BenchmarkHotRead measures a shard's read path: the same GET served over
// HTTP (client + transport included, comparable to
// BenchmarkRouterProxy/direct) and at the bare handler (recorder only —
// the server-side cost in isolation). Every response renders from live
// state into a pooled buffer; the router's edge cache is the only layer
// that serves a repeat read from memory (BenchmarkRouterEdgeCache).
func BenchmarkHotRead(b *testing.B) {
	benchSetup(b)
	srv, err := server.NewMultiCity(server.Options{Cities: []*dataset.City{benchCity}})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	path := "/cities/" + strings.ToLower(benchCity.Name) + "/pois?k=5"
	b.Run("http", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
	b.Run("handler", func(b *testing.B) {
		h := srv.Handler()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d", w.Code)
			}
		}
	})
}

// BenchmarkRouterEdgeCache prices the router's edge cache: the same
// routed GET served as a seq-validated cache hit (zero proxy hops — a
// mutex-guarded map lookup and one Write of the stored bytes) vs paying
// the upstream fill. Rows:
//
//   - hit: recorder-driven cache hit at the router handler — the
//     router-side cost of a cached routed read. Against
//     BenchmarkRouterProxy/routed (the uncached routed path, ns/op) the
//     gap is the proxy hop the cache removes — well past 3×.
//   - miss: the same recorder harness with the route guard forcing the
//     cache aside, so every iteration pays the real upstream HTTP hop and
//     the shard's render — the same-harness uncached baseline, exactly
//     like BenchmarkRouterProxy/routed.
//   - hit-http: the cached read through a real client socket, end-to-end
//     comparable with the BenchmarkRouterProxy rows.
func BenchmarkRouterEdgeCache(b *testing.B) {
	benchSetup(b)
	// Persistence on: mutations allocate WAL sequences, so city-scoped
	// GETs carry the X-GT-Applied-Seq stamp the cache validates against.
	srv, err := server.NewMultiCity(server.Options{Cities: []*dataset.City{benchCity}, SnapshotDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rt, err := router.New(router.Options{
		Topology:     &router.Topology{Shards: []router.Shard{{Name: "s1", Nodes: []string{ts.URL}}}},
		PollInterval: -1,
		EdgeCache:    true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	rt.Poll()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	key := strings.ToLower(benchCity.Name)
	// One committed mutation opens the city's sequence space.
	ratings := []map[string][]float64{}
	for m := 0; m < 3; m++ {
		member := map[string][]float64{}
		for _, c := range poi.Categories {
			v := make([]float64, benchCity.Schema.Dim(c))
			for j := range v {
				v[j] = float64((j + m) % 6)
			}
			member[c.String()] = v
		}
		ratings = append(ratings, member)
	}
	postJSON(b, rts.URL+"/cities/"+key+"/groups", map[string]any{"members": ratings}, http.StatusCreated)
	rt.Poll() // the health feed's appliedSeq bound a hit must prove

	path := "/cities/" + key + "/pois?k=5"
	// Warm the entry, then pin that hits actually happen before timing.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(rts.URL + path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if i == 1 && resp.Header.Get("X-GT-Edge") != "hit" {
			b.Fatal("warm read was not an edge-cache hit")
		}
	}

	h := rt.Handler()
	b.Run("hit", func(b *testing.B) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d", w.Code)
			}
		}
	})
	// The stream param trips the streamed-response guard, so the router
	// proxies every iteration; the shard ignores it and renders the POI
	// listing — the routed-uncached baseline.
	b.Run("miss", func(b *testing.B) {
		req := httptest.NewRequest(http.MethodGet, path+"&stream=0", nil)
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d", w.Code)
			}
		}
	})
	b.Run("hit-http", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := http.Get(rts.URL + path)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
}
