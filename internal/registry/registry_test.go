package registry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"grouptravel/internal/dataset"
)

// The registry's contract is about lifecycle, not datasets, so tests share
// one tiny generated city and hand it out under every key.
var (
	regOnce sync.Once
	regCity *dataset.City
)

func sharedCity(t testing.TB) *dataset.City {
	t.Helper()
	regOnce.Do(func() {
		c, err := dataset.Generate(dataset.TestSpec("RegistryCity", 61))
		if err != nil {
			panic(err)
		}
		regCity = c
	})
	return regCity
}

// counterState is the test serving state: it records which key it was
// built for so tests can see reloads.
type counterState struct {
	key  string
	born int64
}

func newTestRegistry(t testing.TB, keys []string, loadCount, stateCount *atomic.Int64) *Registry[*counterState] {
	t.Helper()
	city := sharedCity(t)
	r, err := New(keys, Options[*counterState]{
		Load: func(key string) (*dataset.City, error) {
			if loadCount != nil {
				loadCount.Add(1)
			}
			return city, nil
		},
		NewState: func(c *City[*counterState]) (*counterState, error) {
			var n int64
			if stateCount != nil {
				n = stateCount.Add(1)
			}
			return &counterState{key: c.Key, born: n}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestUnknownKeyRejected(t *testing.T) {
	r := newTestRegistry(t, []string{"paris"}, nil, nil)
	if _, err := r.Get("atlantis"); err == nil {
		t.Fatal("unknown city accepted")
	}
}

func TestLazySingleflightLoad(t *testing.T) {
	var loads, states atomic.Int64
	r := newTestRegistry(t, []string{"paris", "rome"}, &loads, &states)
	if loads.Load() != 0 {
		t.Fatal("registry loaded eagerly")
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := r.Get("paris")
			if err != nil {
				errs <- err
				return
			}
			if c.Key != "paris" || c.Engine == nil || c.State.key != "paris" {
				errs <- fmt.Errorf("bad city: %+v", c)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := loads.Load(); got != 1 {
		t.Fatalf("%d concurrent gets ran %d loads, want 1", goroutines, got)
	}
	if got := states.Load(); got != 1 {
		t.Fatalf("state built %d times, want 1", got)
	}
	// rome was never touched.
	if _, ok := r.Resident("rome"); ok {
		t.Fatal("untouched city resident")
	}
}

func TestFailedLoadIsRetried(t *testing.T) {
	city := sharedCity(t)
	var calls atomic.Int64
	r, err := New([]string{"flaky"}, Options[struct{}]{
		Load: func(key string) (*dataset.City, error) {
			if calls.Add(1) == 1 {
				return nil, fmt.Errorf("disk on fire")
			}
			return city, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("flaky"); err == nil {
		t.Fatal("failed load reported success")
	}
	c, err := r.Get("flaky")
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if c.Engine == nil {
		t.Fatal("retried city incomplete")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("load called %d times, want 2", got)
	}
}

// TestConcurrentGet: goroutines racing over several keys load each city
// exactly once, and every loaded city reports its load latency.
func TestConcurrentGet(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	var loads atomic.Int64
	r := newTestRegistry(t, keys, &loads, nil)
	const goroutines = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := keys[(g+i)%len(keys)]
				c, err := r.Get(key)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", key, err)
					return
				}
				if c.Key != key {
					errs <- fmt.Errorf("got %q, want %q", c.Key, key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := loads.Load(); got != int64(len(keys)) {
		t.Fatalf("%d keys ran %d loads, want one each", len(keys), got)
	}
	st := r.Stats()
	if st.Loads != 4 || st.Loaded != 4 || st.Known != 4 {
		t.Fatalf("stats = %+v", st)
	}
	for _, c := range st.Cities {
		if c.LoadMillis <= 0 {
			t.Fatalf("city %s missing load latency: %+v", c.Key, c)
		}
	}
}

// TestResident: the no-load lookup reports nothing for unloaded and
// unknown cities without running a load pipeline, and returns the very
// city Get loaded once it is resident.
func TestResident(t *testing.T) {
	var loads atomic.Int64
	r := newTestRegistry(t, []string{"a", "b"}, &loads, nil)

	if _, ok := r.Resident("a"); ok {
		t.Fatal("unloaded city reported resident")
	}
	if _, ok := r.Resident("nowhere"); ok {
		t.Fatal("unknown city reported resident")
	}
	if loads.Load() != 0 {
		t.Fatalf("Resident ran %d load pipelines", loads.Load())
	}

	c, err := r.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	c2, ok := r.Resident("a")
	if !ok || c2 != c {
		t.Fatalf("loaded city not resident (ok=%v)", ok)
	}
	if _, ok := r.Resident("b"); ok {
		t.Fatal("untouched city reported resident")
	}
	if loads.Load() != 1 {
		t.Fatalf("loads = %d, want 1", loads.Load())
	}
}
