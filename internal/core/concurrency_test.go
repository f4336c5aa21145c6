package core

import (
	"fmt"
	"sync"
	"testing"

	"grouptravel/internal/query"
)

// packageFingerprint canonicalizes everything a package build decides: the
// item ids per CI, centroids and the objective value.
func packageFingerprint(tp *TravelPackage) string {
	s := fmt.Sprintf("obj=%v;", tp.ObjVal)
	for _, c := range tp.CIs {
		s += fmt.Sprintf("[%v@%v]", itemKey(c), c.Centroid)
	}
	return s
}

// TestConcurrentBuildMatchesSequential hammers one Engine from many
// goroutines and asserts every concurrent result is byte-identical to the
// sequential build of the same inputs on a fresh engine. Run under -race
// this is also the engine's data-race certificate.
func TestConcurrentBuildMatchesSequential(t *testing.T) {
	e := engine(t)
	gp := randomGroupProfile(t, e, 41)

	// A few distinct workloads: different seeds (distinct clusterings),
	// K values, and the distinct-items path.
	type workload struct {
		q      query.Query
		params Params
	}
	var workloads []workload
	for seed := int64(0); seed < 4; seed++ {
		p := DefaultParams(4)
		p.Seed = seed
		workloads = append(workloads, workload{query.Default(), p})
	}
	pd := DefaultParams(3)
	pd.DistinctItems = true
	workloads = append(workloads, workload{query.Default(), pd})
	restOnly := query.MustNew(0, 0, 3, 0, query.Default().Budget)
	workloads = append(workloads, workload{restOnly, DefaultParams(3)})
	// A package large enough to take buildAll's goroutine-per-centroid
	// path (K ≥ parallelCIThreshold) — must be bit-identical too.
	workloads = append(workloads, workload{query.Default(), DefaultParams(parallelCIThreshold + 1)})

	// Sequential ground truth on a fresh engine.
	seq := make([]string, len(workloads))
	fresh := engine(t)
	for i, wl := range workloads {
		tp, err := fresh.Build(gp, wl.q, wl.params)
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = packageFingerprint(tp)
	}

	const goroutines = 16
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*len(workloads))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger which workload each goroutine starts with so the
				// same key is hit concurrently from many goroutines.
				for off := 0; off < len(workloads); off++ {
					i := (g + off) % len(workloads)
					tp, err := e.Build(gp, workloads[i].q, workloads[i].params)
					if err != nil {
						errs <- err
						return
					}
					if got := packageFingerprint(tp); got != seq[i] {
						errs <- fmt.Errorf("workload %d: concurrent build differs from sequential:\n%s\nvs\n%s", i, got, seq[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The singleflight contract: with 16 goroutines × 3 rounds asking for
	// the same clusterings, each distinct clustering computed exactly once.
	// Distinct keys here: 4 seeds × (K=4) on the default mask, K=3 on the
	// default mask, K=3 on the rest-only mask, and the large-K package.
	const wantDistinct = 7
	if got := e.CacheMisses(); got != wantDistinct {
		t.Fatalf("cache misses = %d, want %d (each distinct clustering computed exactly once)", got, wantDistinct)
	}
	if got := e.CacheSize(); got != wantDistinct {
		t.Fatalf("cache size = %d, want %d", got, wantDistinct)
	}
}

// TestCatsMaskEncoding pins the documented mask encoding: bit c set iff
// category c is requested, distinct masks for distinct category sets.
func TestCatsMaskEncoding(t *testing.T) {
	def, err := catsMask(query.Default())
	if err != nil {
		t.Fatal(err)
	}
	if def != 0b1111 {
		t.Fatalf("default query mask = %#b, want 0b1111", def)
	}
	restOnly, err := catsMask(query.MustNew(0, 0, 3, 0, 100))
	if err != nil {
		t.Fatal(err)
	}
	if restOnly != 0b0100 {
		t.Fatalf("rest-only mask = %#b, want 0b0100", restOnly)
	}
	if def == restOnly {
		t.Fatal("distinct category sets must not collide")
	}
}

// TestClusterCachePanicSafety verifies a panicking computation cannot
// poison the cache: waiters are woken with an error (not blocked forever),
// the entry is evicted so later calls retry, and the panic propagates to
// the computing goroutine.
func TestClusterCachePanicSafety(t *testing.T) {
	cc := newClusterCache(DefaultCacheCap)
	key := clusterKey{k: 3, m: 2, iters: 10, seed: 1, catsMask: 1}

	computing := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the computing goroutine")
			}
		}()
		cc.getOrCompute(key, func() (*clustering, error) {
			close(computing)
			<-release
			panic("boom")
		})
	}()

	// Pin the in-flight entry while the computation is live: this is what
	// any waiter blocks on inside getOrCompute.
	<-computing
	sh := &cc.shards[key.shard()]
	sh.mu.RLock()
	e := sh.entries[key]
	sh.mu.RUnlock()
	if e == nil {
		t.Fatal("no in-flight entry while compute is running")
	}
	// A concurrent waiter goes through the public path. Depending on
	// scheduling it either joins the panicking flight (and must get its
	// error) or arrives after eviction and starts a fresh, successful
	// flight — both are correct; blocking forever or a nil-error nil-result
	// are not.
	waiterDone := make(chan error, 1)
	go func() {
		val, err := cc.getOrCompute(key, func() (*clustering, error) {
			return &clustering{}, nil
		})
		if err == nil && val == nil {
			waiterDone <- fmt.Errorf("waiter got nil result and nil error")
			return
		}
		waiterDone <- nil
	}()
	close(release)
	wg.Wait()
	// The panicked flight's entry must be completed-with-error and evicted.
	<-e.ready // closed by the defer; the test hangs here if poisoning regressed
	if e.err == nil {
		t.Fatal("panicked entry woke waiters without an error")
	}
	if err := <-waiterDone; err != nil {
		t.Fatal(err)
	}
	// The panicked entry is gone; the slot is either empty or holds the
	// waiter's fresh successful flight.
	sh.mu.RLock()
	cur := sh.entries[key]
	sh.mu.RUnlock()
	if cur == e {
		t.Fatal("panicked entry not evicted")
	}

	// The key is retryable afterwards.
	if _, err := cc.getOrCompute(key, func() (*clustering, error) {
		return &clustering{}, nil
	}); err != nil {
		t.Fatalf("retry after panic: %v", err)
	}
}

// TestClusterCacheEvictsFailures verifies failed computations are not
// memoized: a query with too few relevant POIs fails every time (rather
// than caching the error) and leaves no entry behind.
func TestClusterCacheEvictsFailures(t *testing.T) {
	e := engine(t)
	gp := randomGroupProfile(t, e, 42)
	q := query.MustNew(0, 0, 1, 0, query.Default().Budget)
	params := DefaultParams(10_000) // more clusters than POIs: clustering must fail
	for i := 0; i < 2; i++ {
		if _, err := e.Build(gp, q, params); err == nil {
			t.Fatal("expected failure for K larger than the city")
		}
	}
	if got := e.CacheSize(); got != 0 {
		t.Fatalf("failed clustering left %d cache entries", got)
	}
	if got := e.CacheMisses(); got != 2 {
		t.Fatalf("failed clustering should recompute every time: misses = %d, want 2", got)
	}
}
