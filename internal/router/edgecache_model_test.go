package router

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"grouptravel/internal/telemetry"
)

// The edge cache keeps every entry in three structures — the key map, the
// LRU and its city's seq-ordered index — and invalidation drops entries
// from all three at once. These tests hunt for bookkeeping faults with
// seeded random operation mixes instead of handpicked scenarios: a
// sequential hunt checks every answer and the whole structure against a
// plain reference model after every step, and a concurrent hunt runs the
// same mix from several goroutines (under -race in `make race`). A
// failure names its seed; `go test -run 'TestEdgeCacheModel/seed=N'`
// replays it.

const (
	huntSeeds = 40
	huntSteps = 400
	huntCap   = 8
)

var huntCities = []string{"a", "b", "c"}

// edgeModel is the reference: the resident entries in LRU order (front =
// most recently served), the commit floors, and the keys with a fill in
// flight. Every operation is the cache's contract spelled out on a slice.
type edgeModel struct {
	cap    int
	order  []*edgeEntry
	floors map[string]int64
	fills  map[string]bool
}

func (m *edgeModel) find(key string) int {
	return slices.IndexFunc(m.order, func(e *edgeEntry) bool { return e.key == key })
}

func (m *edgeModel) toFront(i int) {
	e := m.order[i]
	m.order = slices.Insert(slices.Delete(m.order, i, i+1), 0, e)
}

func (m *edgeModel) get(key string, floor int64) *edgeEntry {
	i := m.find(key)
	if i < 0 {
		return nil
	}
	e := m.order[i]
	if e.seq < max(floor, m.floors[e.city]) {
		return nil
	}
	m.toFront(i)
	return e
}

func (m *edgeModel) put(e *edgeEntry) {
	if e.seq < m.floors[e.city] {
		return
	}
	if i := m.find(e.key); i >= 0 {
		if m.order[i].seq > e.seq {
			return
		}
		m.order = slices.Delete(m.order, i, i+1)
	}
	m.order = slices.Insert(m.order, 0, e)
	if len(m.order) > m.cap {
		m.order = m.order[:m.cap]
	}
}

func (m *edgeModel) invalidate(city string, seq int64) {
	if seq <= m.floors[city] {
		return
	}
	m.floors[city] = seq
	m.order = slices.DeleteFunc(m.order, func(e *edgeEntry) bool { return e.city == city && e.seq < seq })
}

func huntCache(cap int) *edgeCache {
	return newEdgeCache(cap, newCounters(telemetry.NewRegistry()))
}

// huntEntry draws an entry over a small key space, so keys collide, with
// a seq around the city's floor, so puts land below it, at it, and past
// it, and a body of random length, so the byte count is exercised.
func huntEntry(r *rand.Rand, floor int64) *edgeEntry {
	city := huntCities[r.IntN(len(huntCities))]
	key := edgeKey(city, fmt.Sprintf("/cities/%s/groups/%d", city, r.IntN(5)), "")
	return &edgeEntry{key: key, city: city, seq: floor - 2 + r.Int64N(8), body: make([]byte, r.IntN(64))}
}

// checkEdgeCache compares the cache's whole structure with the model: the
// LRU holds the model's entries in the model's order, the key map and the
// city indexes hold exactly those entries, each index is in ascending seq
// order, no entry sits below its city's floor, and the entry and byte
// counts agree.
func checkEdgeCache(ec *edgeCache, m *edgeModel) error {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if ec.lru.Len() != len(m.order) || len(ec.m) != len(m.order) {
		return fmt.Errorf("lru %d, map %d entries; model %d", ec.lru.Len(), len(ec.m), len(m.order))
	}
	i, bytes := 0, 0
	for el := ec.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*edgeEntry)
		if e != m.order[i] || e.lru != el {
			return fmt.Errorf("lru position %d holds %q seq %d, model %q seq %d", i, e.key, e.seq, m.order[i].key, m.order[i].seq)
		}
		if ec.m[e.key] != e {
			return fmt.Errorf("key map lost %q", e.key)
		}
		if e.seq < m.floors[e.city] {
			return fmt.Errorf("%q seq %d resident below city %s's floor %d", e.key, e.seq, e.city, m.floors[e.city])
		}
		bytes += len(e.body)
		i++
	}
	indexed := 0
	for city, idx := range ec.cities {
		if idx.Len() == 0 {
			return fmt.Errorf("city %s keeps an empty index", city)
		}
		prev := int64(-1 << 62)
		for el := idx.Front(); el != nil; el = el.Next() {
			e := el.Value.(*edgeEntry)
			if e.city != city || e.byCity != el || ec.m[e.key] != e {
				return fmt.Errorf("city %s index holds %q (city %s), not a resident entry of it", city, e.key, e.city)
			}
			if e.seq < prev {
				return fmt.Errorf("city %s index out of seq order: %d after %d", city, e.seq, prev)
			}
			prev = e.seq
			indexed++
		}
	}
	if indexed != len(m.order) {
		return fmt.Errorf("city indexes hold %d entries, model %d", indexed, len(m.order))
	}
	if ec.bytes != bytes {
		return fmt.Errorf("byte count %d, resident bodies sum to %d", ec.bytes, bytes)
	}
	if len(m.order) > ec.cap {
		return fmt.Errorf("%d entries over cap %d", len(m.order), ec.cap)
	}
	if len(ec.fills) != len(m.fills) {
		return fmt.Errorf("%d fills in flight, model %d", len(ec.fills), len(m.fills))
	}
	for key := range m.fills {
		if ec.fills[key] == nil {
			return fmt.Errorf("fill for %q lost", key)
		}
	}
	return nil
}

// huntSequential runs one seed's operation mix against the cache and the
// model in lockstep.
func huntSequential(seed uint64) error {
	r := rand.New(rand.NewPCG(seed, 0))
	ec := huntCache(huntCap)
	m := &edgeModel{cap: huntCap, floors: map[string]int64{}, fills: map[string]bool{}}
	inflight := map[string]*edgeFill{}
	for step := 0; step < huntSteps; step++ {
		city := huntCities[r.IntN(len(huntCities))]
		var what string
		switch op := r.IntN(10); {
		case op < 4:
			e := huntEntry(r, m.floors[city])
			what = fmt.Sprintf("put %q seq %d", e.key, e.seq)
			ec.put(e)
			m.put(e)
		case op < 7:
			probe := huntEntry(r, m.floors[city])
			what = fmt.Sprintf("get %q floor %d", probe.key, probe.seq)
			got, want := ec.get(probe.key, probe.seq), m.get(probe.key, probe.seq)
			if got != want {
				return fmt.Errorf("step %d, %s: cache %+v, model %+v", step, what, got, want)
			}
		case op < 8:
			seq := m.floors[city] - 1 + r.Int64N(5)
			what = fmt.Sprintf("invalidate %s to %d", city, seq)
			ec.invalidate(city, seq)
			m.invalidate(city, seq)
		default:
			key := huntEntry(r, 0).key
			if fill, ok := inflight[key]; ok {
				what = "finish " + key
				ec.finish(key, fill, nil)
				delete(inflight, key)
				delete(m.fills, key)
				break
			}
			what = "join " + key
			fill, leader := ec.join(key)
			if !leader {
				return fmt.Errorf("step %d, %s: no fill in flight, yet not the leader", step, what)
			}
			inflight[key] = fill
			m.fills[key] = true
		}
		if err := checkEdgeCache(ec, m); err != nil {
			return fmt.Errorf("step %d, after %s: %v", step, what, err)
		}
	}
	return nil
}

func TestEdgeCacheModel(t *testing.T) {
	for seed := uint64(1); seed <= huntSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := huntSequential(seed); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

// TestEdgeCacheModelConcurrent runs the operation mix from several
// goroutines at once. No sequential model fits an interleaving, so it
// checks what holds under any one: a get never returns an entry below
// the caller's floor or below the city floor it observed before the call
// (floors only rise), a coalesced rider receives what its leader
// published, and once the goroutines finish the structure is consistent
// with itself — checked against a model rebuilt from the LRU.
func TestEdgeCacheModelConcurrent(t *testing.T) {
	for seed := uint64(1); seed <= huntSeeds/4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ec := huntCache(huntCap)
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for g := uint64(0); g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := huntConcurrent(ec, rand.New(rand.NewPCG(seed, g))); err != nil {
						errs <- fmt.Errorf("seed %d goroutine %d: %v", seed, g, err)
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			m := &edgeModel{cap: huntCap, floors: map[string]int64{}, fills: map[string]bool{}}
			ec.mu.Lock()
			for el := ec.lru.Front(); el != nil; el = el.Next() {
				m.order = append(m.order, el.Value.(*edgeEntry))
			}
			for city, f := range ec.floors {
				m.floors[city] = f
			}
			ec.mu.Unlock()
			if err := checkEdgeCache(ec, m); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

func huntConcurrent(ec *edgeCache, r *rand.Rand) error {
	for step := 0; step < huntSteps; step++ {
		city := huntCities[r.IntN(len(huntCities))]
		floor := ec.floor(city)
		switch op := r.IntN(10); {
		case op < 4:
			ec.put(huntEntry(r, floor))
		case op < 7:
			probe := huntEntry(r, floor)
			cityFloor := ec.floor(probe.city)
			if e := ec.get(probe.key, probe.seq); e != nil && e.seq < max(probe.seq, cityFloor) {
				return fmt.Errorf("step %d: get %q floor %d served seq %d under city floor %d",
					step, probe.key, probe.seq, e.seq, cityFloor)
			}
		case op < 8:
			ec.invalidate(city, floor-1+r.Int64N(5))
		default:
			e := huntEntry(r, floor)
			fill, leader := ec.join(e.key)
			if !leader {
				<-fill.done
				if fill.entry != nil && fill.entry.key != e.key {
					return fmt.Errorf("step %d: rider of %q got %q", step, e.key, fill.entry.key)
				}
				continue
			}
			ec.put(e)
			ec.finish(e.key, fill, e)
		}
	}
	return nil
}
