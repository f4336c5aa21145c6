// Package registry is the multi-city serving layer between the engine and
// the HTTP surface: a concurrency-safe, city-keyed registry that lazily
// loads city datasets and constructs one shared core.Engine (plus
// arbitrary per-city serving state) per city.
//
// # Lifecycle
//
// A registry is created over a fixed key set (the cities a data directory
// can serve). Nothing is loaded up front: the first Get of a key runs the
// Load → NewEngine → NewState pipeline exactly once no matter how many
// requests arrive concurrently (singleflight — late arrivals block on the
// first loader and share its result; a failed load is forgotten so the
// next Get retries). A loaded city stays resident for the life of the
// process: which cities a node serves is decided upstream (the router's
// hash ring), and cities nobody asks for are simply never loaded.
//
// # Locking
//
// One registry mutex guards the key → entry map; dataset loading, engine
// construction and state loading all run outside it. The registry never
// calls user hooks (Load, NewState) while holding its lock, so hooks may
// acquire their own locks freely.
package registry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"grouptravel/internal/core"
	"grouptravel/internal/dataset"
)

// City is one loaded city: the dataset, its shared engine, and the
// caller-defined serving state built by NewState. All fields are
// immutable after load; S's own synchronization is S's business.
type City[S any] struct {
	Key    string
	City   *dataset.City
	Engine *core.Engine
	State  S
}

// Options configures a registry over serving state S.
type Options[S any] struct {
	// Load returns the dataset for a key. Required. Called outside the
	// registry lock, at most once per load (singleflight).
	Load func(key string) (*dataset.City, error)

	// NewState builds the per-city serving state once the dataset and
	// engine exist — the place to reload persisted groups/packages.
	// Optional; the zero S is used when nil.
	NewState func(c *City[S]) (S, error)

	// EngineCacheCap overrides the per-engine cluster-cache bound
	// (core.DefaultCacheCap when 0, unbounded when < 0).
	EngineCacheCap int
}

// entry is one slot in the key map. ready is closed when loading finished;
// city/err are final after that. loadNanos is guarded by the registry
// mutex.
type entry[S any] struct {
	ready     chan struct{}
	city      *City[S]
	err       error
	loadNanos int64 // wall time of the Load → NewEngine → NewState pipeline
}

// Registry routes city keys to loaded cities. Safe for concurrent use.
type Registry[S any] struct {
	opts  Options[S]
	keys  []string
	known map[string]bool

	mu      sync.Mutex
	entries map[string]*entry[S]
	loads   int64
}

// New builds a registry over the given key set.
func New[S any](keys []string, opts Options[S]) (*Registry[S], error) {
	if opts.Load == nil {
		return nil, fmt.Errorf("registry: Load is required")
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("registry: no cities")
	}
	r := &Registry[S]{
		opts:    opts,
		known:   make(map[string]bool, len(keys)),
		entries: make(map[string]*entry[S], len(keys)),
	}
	for _, k := range keys {
		if k == "" {
			return nil, fmt.Errorf("registry: empty city key")
		}
		if r.known[k] {
			return nil, fmt.Errorf("registry: duplicate city key %q", k)
		}
		r.known[k] = true
		r.keys = append(r.keys, k)
	}
	sort.Strings(r.keys)
	return r, nil
}

// Keys returns all known city keys, sorted.
func (r *Registry[S]) Keys() []string {
	out := make([]string, len(r.keys))
	copy(out, r.keys)
	return out
}

// Has reports whether key is servable.
func (r *Registry[S]) Has(key string) bool { return r.known[key] }

// Get returns the loaded city for key, loading it on first use.
func (r *Registry[S]) Get(key string) (*City[S], error) {
	if !r.known[key] {
		return nil, fmt.Errorf("registry: unknown city %q", key)
	}
	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		r.mu.Unlock()
		<-e.ready
		return e.city, e.err
	}
	e := &entry[S]{ready: make(chan struct{})}
	r.entries[key] = e
	r.loads++
	r.mu.Unlock()

	start := time.Now()
	e.city, e.err = r.load(key)
	r.mu.Lock()
	if e.err != nil {
		// Forget the failed load so a later Get retries; waiters observe
		// the error through the entry they already hold.
		delete(r.entries, key)
	} else {
		e.loadNanos = int64(time.Since(start))
	}
	r.mu.Unlock()
	close(e.ready)
	return e.city, e.err
}

// Resident returns key's city only if it is already loaded; it never
// triggers a load. ok is false for unknown, unloaded, still-loading and
// failed cities. Sweeps over resident state (promotion, epoch persistence,
// metric scrapes) use it so they never fault a city in.
func (r *Registry[S]) Resident(key string) (c *City[S], ok bool) {
	r.mu.Lock()
	e, found := r.entries[key]
	r.mu.Unlock()
	if !found {
		return nil, false
	}
	select {
	case <-e.ready:
		return e.city, e.err == nil
	default:
		return nil, false
	}
}

// load runs the Load → NewEngine → NewState pipeline outside the lock.
func (r *Registry[S]) load(key string) (*City[S], error) {
	ds, err := r.opts.Load(key)
	if err != nil {
		return nil, fmt.Errorf("registry: load %q: %w", key, err)
	}
	engine, err := core.NewEngine(ds)
	if err != nil {
		return nil, fmt.Errorf("registry: engine for %q: %w", key, err)
	}
	if cap := r.opts.EngineCacheCap; cap != 0 {
		engine.SetCacheCap(cap)
	}
	c := &City[S]{Key: key, City: ds, Engine: engine}
	if r.opts.NewState != nil {
		st, err := r.opts.NewState(c)
		if err != nil {
			return nil, fmt.Errorf("registry: state for %q: %w", key, err)
		}
		c.State = st
	}
	return c, nil
}

// LoadedCity is one resident city as reported by Stats. LoadMillis is the
// wall time its load pipeline took — dataset read, engine construction and
// state build (with persistence: snapshot read + log replay) — so a warm-up
// policy can see what each cold start costs; 0 while still loading.
type LoadedCity struct {
	Key        string  `json:"key"`
	LoadMillis float64 `json:"loadMillis"`
}

// Stats is a point-in-time view of the registry for health endpoints.
type Stats struct {
	Known  int          `json:"known"`
	Loaded int          `json:"loaded"`
	Loads  int64        `json:"loads"` // load pipelines started (retries after a failed load included)
	Cities []LoadedCity `json:"cities"`
}

// Stats snapshots the registry counters.
func (r *Registry[S]) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{Known: len(r.known), Loaded: len(r.entries), Loads: r.loads}
	for k, e := range r.entries {
		st.Cities = append(st.Cities, LoadedCity{
			Key:        k,
			LoadMillis: float64(e.loadNanos) / float64(time.Millisecond),
		})
	}
	sort.Slice(st.Cities, func(i, j int) bool { return st.Cities[i].Key < st.Cities[j].Key })
	return st
}

// Range calls fn for every resident city. Used by health reporting to
// enumerate loaded cities.
func (r *Registry[S]) Range(fn func(c *City[S])) {
	r.mu.Lock()
	cities := make([]*City[S], 0, len(r.entries))
	for _, e := range r.entries {
		select {
		case <-e.ready:
			if e.err == nil {
				cities = append(cities, e.city)
			}
		default:
		}
	}
	r.mu.Unlock()
	for _, c := range cities {
		fn(c)
	}
}
