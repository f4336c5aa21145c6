package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"grouptravel/internal/dataset"
)

// env is one booted, seeded topology with the generator's state.
type env struct {
	dir    string // the topology's state, removed by close
	cfg    config
	w      workload
	top    *topology
	data   []*dataset.City
	cities []*benchCity
	hc     *http.Client // load: one keep-alive connection per sender
	ctl    *http.Client // scrapes and checks, off the load connections
	tr     *tracer
	replay *replayLog
	ids    atomic.Uint64
}

// setup generates the cities, boots a fresh topology with its state in a
// new directory under cfg.dir, seeds it through the router's public API,
// and waits for the follower to hold everything the primary does.
func setup(cfg config, w workload, tr *tracer) (*env, error) {
	data, err := genCities(cfg.cities, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("generate cities: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.dir, w.name+"-")
	if err != nil {
		return nil, err
	}
	top, err := boot(data, dir, tr)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("boot: %w", err)
	}
	e := &env{
		dir: dir, cfg: cfg, w: w, top: top, data: data, tr: tr,
		hc: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost:     cfg.senders,
			MaxIdleConnsPerHost: cfg.senders,
			DisableCompression:  true,
		}},
		ctl: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
	if err := e.discover(); err != nil {
		e.close()
		return nil, err
	}
	if err := e.seedState(cfg.seedPkgs(w)); err != nil {
		e.close()
		return nil, fmt.Errorf("seed: %w", err)
	}
	if err := e.converge(10 * time.Second); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) close() {
	e.top.close()
	e.hc.CloseIdleConnections()
	e.ctl.CloseIdleConnections()
	os.RemoveAll(e.dir)
}

func (e *env) getJSON(url string, out any) error {
	resp, err := e.ctl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// discover learns each city's schema dimensions through the router, the
// way any client would.
func (e *env) discover() error {
	for i, key := range e.top.keys {
		var info struct {
			Schema map[string][]string `json:"schema"`
		}
		if err := e.getJSON(e.top.router+"/cities/"+key, &info); err != nil {
			return fmt.Errorf("city %s: %w", key, err)
		}
		c := &benchCity{key: key, idx: i, dims: map[string]int{}}
		for cat, labels := range info.Schema {
			c.dims[cat] = len(labels)
		}
		e.cities = append(e.cities, c)
	}
	return nil
}

// seedState creates n groups per city, each with one package, using the
// same request code and checks as the personas.
func (e *env) seedState(n int) error {
	type job struct {
		city int
		idx  int
	}
	jobs := make(chan job)
	var mu sync.Mutex
	leases := make([][]*lease, len(e.cities))
	clusterings := rand.New(rand.NewPCG(uint64(e.cfg.seed), 104)).Perm(len(planQueries) * planKs)
	recs := make([]*recorder, e.cfg.senders)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = &recorder{}
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			for j := range jobs {
				c := e.cities[j.city]
				p := &persona{e: e, r: rand.New(rand.NewPCG(uint64(e.cfg.seed), uint64(j.city)<<32|uint64(j.idx))), city: c, rec: rec}
				bi := buildInput{
					city:      j.city,
					members:   p.members(2 + p.r.IntN(11)),
					consensus: consensusNames[p.r.IntN(len(consensusNames))],
					k:         3 + p.r.IntN(5),
				}
				if e.w.wideBuilds {
					key := clusterings[j.idx%len(clusterings)]
					bi.query = planQueries[key%len(planQueries)]
					bi.k = planMinK + key/len(planQueries)
				}
				b, ok := p.build(bi)
				if !ok {
					continue
				}
				mu.Lock()
				c.groups = append(c.groups, b.group)
				c.pkgs = append(c.pkgs, b.id)
				leases[j.city] = append(leases[j.city], &lease{id: b.id, groupSize: len(bi.members), seq: b.seq, body: b.body})
				mu.Unlock()
			}
		}(recs[i])
	}
	for i := 0; i < n; i++ {
		for c := range e.cities {
			jobs <- job{city: c, idx: i}
		}
	}
	close(jobs)
	wg.Wait()
	var all recorder
	for _, r := range recs {
		all.merge(r)
	}
	if all.errors+all.violations > 0 {
		return fmt.Errorf("%d errors, %d violations: %v", all.errors, all.violations, all.msgs)
	}
	for i, c := range e.cities {
		sort.Ints(c.pkgs)
		sort.Ints(c.groups)
		c.made = nil
		sort.Slice(leases[i], func(a, b int) bool { return leases[i][a].id < leases[i][b].id })
		c.leases = make(chan *lease, len(leases[i]))
		for _, l := range leases[i] {
			c.leases <- l
		}
	}
	return nil
}

// appliedSeqs reads a node's per-city applied sequence from GET /cities.
func (e *env) appliedSeqs(base string) (map[string]int64, error) {
	var rows []struct {
		Key        string `json:"key"`
		AppliedSeq int64  `json:"appliedSeq"`
	}
	if err := e.getJSON(base+"/cities", &rows); err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(rows))
	for _, r := range rows {
		out[r.Key] = r.AppliedSeq
	}
	return out, nil
}

// converge waits until the follower has applied, per city, everything
// the primary has committed.
func (e *env) converge(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		prim, err := e.appliedSeqs(e.top.primary)
		if err != nil {
			return err
		}
		foll, err := e.appliedSeqs(e.top.follower)
		if err != nil {
			return err
		}
		behind := ""
		for _, key := range e.top.keys {
			if foll[key] < prim[key] {
				behind = fmt.Sprintf("city %s: follower at %d, primary at %d", key, foll[key], prim[key])
				break
			}
		}
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower did not converge within %v: %s", timeout, behind)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkReplicas samples packages and fetches each directly from the
// primary and the follower: the bodies must be byte-identical. It
// returns the violations found.
func (e *env) checkReplicas(samples int, seed int64) []string {
	type ref struct {
		city string
		id   int
	}
	var refs []ref
	for _, c := range e.cities {
		c.mu.Lock()
		for _, id := range c.made {
			refs = append(refs, ref{c.key, id})
		}
		c.mu.Unlock()
		for _, id := range c.pkgs {
			refs = append(refs, ref{c.key, id})
		}
	}
	r := rand.New(rand.NewPCG(uint64(seed), 0xc0ffee))
	r.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	var bad []string
	fetch := func(base string, x ref) ([]byte, error) {
		resp, err := e.ctl.Get(base + "/cities/" + x.city + "/packages/" + strconv.Itoa(x.id))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		return body, err
	}
	for _, x := range refs[:min(samples, len(refs))] {
		a, errA := fetch(e.top.primary, x)
		b, errB := fetch(e.top.follower, x)
		switch {
		case errA != nil || errB != nil:
			bad = append(bad, fmt.Sprintf("package %s/%d: primary %v, follower %v", x.city, x.id, errA, errB))
		case !bytes.Equal(a, b):
			bad = append(bad, fmt.Sprintf("package %s/%d: primary and follower bodies differ", x.city, x.id))
		}
	}
	return bad
}

// clusterMisses sums the primary engines' cluster-cache misses; only
// /healthz carries them.
func (e *env) clusterMisses() (float64, error) {
	var h struct {
		Cities map[string]struct {
			Cache struct {
				Misses float64 `json:"misses"`
			} `json:"clusterCache"`
		} `json:"cities"`
	}
	if err := e.getJSON(e.top.primary+"/healthz", &h); err != nil {
		return 0, err
	}
	var total float64
	for _, c := range h.Cities {
		total += c.Cache.Misses
	}
	return total, nil
}

// cityLoadMS is the median per-city load time the primary's registry
// measured at boot (dataset, engine and state construction).
func (e *env) cityLoadMS() (float64, error) {
	var h struct {
		Registry struct {
			Cities []struct {
				LoadMillis float64 `json:"loadMillis"`
			} `json:"cities"`
		} `json:"registry"`
	}
	if err := e.getJSON(e.top.primary+"/healthz", &h); err != nil {
		return 0, err
	}
	var ms []float64
	for _, c := range h.Registry.Cities {
		ms = append(ms, c.LoadMillis)
	}
	sort.Float64s(ms)
	return median(ms), nil
}

// scrapes is one /metrics page from each node.
type scrapes struct {
	router, primary, follower promScrape
}

func (e *env) scrapeAll() (scrapes, error) {
	var s scrapes
	var err error
	if s.router, err = scrapeMetrics(e.ctl, e.top.router); err != nil {
		return s, err
	}
	if s.primary, err = scrapeMetrics(e.ctl, e.top.primary); err != nil {
		return s, err
	}
	s.follower, err = scrapeMetrics(e.ctl, e.top.follower)
	return s, err
}
