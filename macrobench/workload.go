package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"grouptravel/internal/core"
)

// opClass is the benchmark's own operation taxonomy: latency is reported
// per class of request the personas issue.
type opClass uint8

const (
	opRead opClass = iota
	opGroup
	opBuild
	opCustomize
	opRefine
	opOther
	numOps
)

var opNames = [...]string{"read", "group", "build", "customize", "refine", "other"}

// persona kinds: what one arrival does.
type personaKind uint8

const (
	reader personaKind = iota
	planner
	customizer
	refiner
	numPersonas
)

// workload is one traffic mix. Rates are open-loop arrivals per second,
// frozen at roughly a third of the capacity_rps measured on a 2-core
// machine, where queueing adds little noise beyond the host's own; they
// are never re-derived per run.
type workload struct {
	name string
	rate float64
	// mix is each persona's share of arrivals.
	mix [numPersonas]float64
	// seedPkgs is how many groups, each with one package, are seeded
	// per city before the run: the read key space and the lease pool.
	seedPkgs int
	// wideBuilds makes planners draw from the 104 clusterings of
	// planQueries × planKs, and seeds packages over a random subset of
	// them, as many as the engines' cluster caches hold, so the caches
	// start in their steady state. Otherwise every build uses the
	// default query with k 3–7, whose clusterings the seeded packages
	// already cached.
	wideBuilds bool
	// capacityArrivals is the fixed work -sweep's closed-loop capacity
	// measurement runs, about five seconds of it.
	capacityArrivals int
}

var workloads = []workload{
	{
		// Token-less reads over ~4,800 keys against the router's 4,096
		// entry edge cache: the edge cache, proxy and shard byte cache do
		// nearly all the work, and the engine and WAL barely run.
		name: "browse", rate: 1000,
		mix:      [numPersonas]float64{reader: 0.96, planner: 0.01, customizer: 0.01, refiner: 0.02},
		seedPkgs: 400, capacityArrivals: 24000,
	},
	{
		// Fresh groups and builds over 104 cluster keys per city against
		// the engine's 64-entry cluster cache: consensus, clustering and
		// CI construction dominate, and every read-back is a fresh key.
		name: "plan", rate: 60,
		mix:      [numPersonas]float64{planner: 0.8, refiner: 0.2},
		seedPkgs: core.DefaultCacheCap, wideBuilds: true, capacityArrivals: 950,
	},
	{
		// The paper's customization loop on leased seeded packages: WAL
		// appends with fsync, replication frames, edge invalidations and
		// floor-pinned read-backs beside every write.
		name: "customize", rate: 150,
		mix:      [numPersonas]float64{customizer: 0.9, refiner: 0.1},
		seedPkgs: 200, capacityArrivals: 2200,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pick draws a persona kind from the mix.
func (w workload) pick(r *rand.Rand) personaKind {
	u := r.Float64()
	for k, share := range w.mix {
		if u < share {
			return personaKind(k)
		}
		u -= share
	}
	for k := numPersonas - 1; k > 0; k-- {
		if w.mix[k] > 0 {
			return k
		}
	}
	return reader
}

var (
	catNames       = []string{"acco", "trans", "rest", "attr"}
	consensusNames = []string{"avg", "leastmisery", "pairwise", "variance"}
	// planQueries are eight category subsets; with planKs values of k
	// they make 104 distinct clusterings per city.
	planQueries = []*queryReq{
		{1, 1, 1, 3}, {1, 0, 1, 3}, {0, 1, 1, 3}, {1, 1, 0, 3},
		{0, 0, 1, 3}, {1, 0, 0, 3}, {0, 0, 2, 0}, {1, 1, 2, 0},
	}
)

// Planners ask for k in planMinK .. planMinK+planKs-1 days.
const (
	planMinK = 2
	planKs   = 13
)

// queryReq is the server's package query body; a nil query asks for the
// paper's default ⟨1 acco, 1 trans, 1 rest, 3 attr⟩.
type queryReq struct {
	Acco, Trans, Rest, Attr int
}

// benchCity is what personas know about one city: its schema, the seeded
// read targets, the lease pool, and the highest commit sequence acked.
type benchCity struct {
	key    string
	idx    int
	dims   map[string]int
	groups []int // seeded group ids, ascending: zipf rank order
	pkgs   []int // seeded package ids, ascending
	leases chan *lease
	head   atomic.Int64

	mu   sync.Mutex
	made []int // packages built during the run
}

func (c *benchCity) noteHead(seq int64) {
	for {
		h := c.head.Load()
		if seq <= h || c.head.CompareAndSwap(h, seq) {
			return
		}
	}
}

func (c *benchCity) noteMade(id int) {
	c.mu.Lock()
	if len(c.made) < 4096 {
		c.made = append(c.made, id)
	}
	c.mu.Unlock()
}

// lease is exclusive use of one seeded package: the holder knows its
// current body and the sequence of the last write to it, so ops it
// builds can never conflict with another session's.
type lease struct {
	id        int
	groupSize int
	seq       int64
	body      []byte
}

// recorder collects one sender's measurements; senders never share one.
type recorder struct {
	lat          [numOps][]float64 // ms from due time, successful requests only
	tracedRead   []float64
	untracedRead []float64
	queueUS      []float64 // arrival due → sender pickup
	staleness    []float64 // records behind the acked head, token-less reads
	stale        int64
	attempted    int64
	errors       int64
	violations   int64
	msgs         []string
	// body is the sender's reusable response buffer: a reply's body is
	// valid until the sender's next request.
	body bytes.Buffer
}

func (r *recorder) note(kind, msg string) {
	if len(r.msgs) < 8 {
		r.msgs = append(r.msgs, kind+": "+msg)
	}
}

func (r *recorder) fail(format string, args ...any) {
	r.errors++
	r.note("error", fmt.Sprintf(format, args...))
}

func (r *recorder) violate(format string, args ...any) {
	r.violations++
	r.note("violation", fmt.Sprintf(format, args...))
}

func (r *recorder) merge(o *recorder) {
	for i := range r.lat {
		r.lat[i] = append(r.lat[i], o.lat[i]...)
	}
	r.tracedRead = append(r.tracedRead, o.tracedRead...)
	r.untracedRead = append(r.untracedRead, o.untracedRead...)
	r.queueUS = append(r.queueUS, o.queueUS...)
	r.staleness = append(r.staleness, o.staleness...)
	r.stale += o.stale
	r.attempted += o.attempted
	r.errors += o.errors
	r.violations += o.violations
	for _, m := range o.msgs {
		if len(r.msgs) < 8 {
			r.msgs = append(r.msgs, m)
		}
	}
}

// arrival is one persona due at a scheduled time.
type arrival struct {
	n      uint64
	due    time.Time
	kind   personaKind
	traced bool
}

// phaseResult is one load phase's merged measurements.
type phaseResult struct {
	recorder
	lateMS  []float64 // dispatcher wake-up − due
	elapsed time.Duration
}

// openLoop offers arrivals at rate for dur, as independent users do: a
// Poisson schedule that never waits for the system. nproc senders, each
// on its own keep-alive connection, run the personas; an arrival waits
// for a free sender, and every request is timed from when it was due.
func (e *env) openLoop(rate float64, dur time.Duration, seed uint64, traced bool) *phaseResult {
	// The queue holds every arrival the phase can schedule, so the
	// dispatcher never blocks behind a slow system.
	queue := make(chan arrival, int(rate*dur.Seconds()*1.5)+64)
	recs := make([]*recorder, e.cfg.senders)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = &recorder{}
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			for a := range queue {
				rec.queueUS = append(rec.queueUS, float64(time.Since(a.due))/1e3)
				e.runPersona(a, rec, seed)
			}
		}(recs[i])
	}
	res := &phaseResult{}
	r := rand.New(rand.NewPCG(seed, 0x5851f42d4c957f2d))
	start := time.Now()
	next := start
	for n := uint64(0); ; n++ {
		next = next.Add(time.Duration(r.ExpFloat64() / rate * float64(time.Second)))
		if next.Sub(start) >= dur {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		res.lateMS = append(res.lateMS, float64(time.Since(next))/1e6)
		a := arrival{n: n, due: next, kind: e.w.pick(r), traced: traced && n%2 == 0}
		select {
		case queue <- a:
		default:
			res.fail("arrival %d dropped: the queue is full", n)
		}
	}
	close(queue)
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, rec := range recs {
		res.merge(rec)
	}
	return res
}

// closedLoop runs a fixed number of arrivals with nproc clients that each
// start the next persona as soon as the last one finished: the capacity
// phase's fixed work.
func (e *env) closedLoop(arrivals int, seed uint64) *phaseResult {
	r := rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))
	kinds := make([]personaKind, arrivals)
	for i := range kinds {
		kinds[i] = e.w.pick(r)
	}
	var next atomic.Int64
	recs := make([]*recorder, e.cfg.senders)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range recs {
		recs[i] = &recorder{}
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			for {
				n := next.Add(1) - 1
				if n >= int64(arrivals) {
					return
				}
				e.runPersona(arrival{n: uint64(n), due: time.Now(), kind: kinds[n]}, rec, seed)
			}
		}(recs[i])
	}
	wg.Wait()
	res := &phaseResult{elapsed: time.Since(start)}
	for _, rec := range recs {
		res.merge(rec)
	}
	return res
}

// persona is one arrival's script state.
type persona struct {
	e      *env
	r      *rand.Rand
	city   *benchCity
	rec    *recorder
	due    time.Time // due time of the next request; zero means now
	traced bool
	cookie string // gt-session value from the last write
}

func (e *env) runPersona(a arrival, rec *recorder, seed uint64) {
	r := rand.New(rand.NewPCG(seed^0x9e3779b97f4a7c15, a.n))
	cityRank := int(rand.NewZipf(r, 1.2, 1, uint64(len(e.cities)-1)).Uint64())
	p := &persona{e: e, r: r, city: e.cities[cityRank], rec: rec, due: a.due, traced: a.traced}
	switch a.kind {
	case reader:
		p.read()
	case planner:
		p.plan()
	case customizer:
		p.customize()
	case refiner:
		p.refine(a.n%2 == 0)
	}
}

// reply is one completed request. body aliases the sender's buffer:
// copy it to keep it past the sender's next request.
type reply struct {
	body []byte
	hdr  http.Header
}

// floor says how a read carries read-your-writes: token-less, with the
// persona's gt-session cookie, or with an explicit X-GT-Min-Seq.
type floor struct {
	cookie bool
	minSeq int64
}

// do issues one request through the router and records it. Any non-2xx
// answer is an error: every request the personas build is valid.
func (p *persona) do(op opClass, method, path string, body []byte, fl floor) (reply, bool) {
	e := p.e
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.top.router+path, rd)
	if err != nil {
		p.rec.fail("%s %s: %v", method, path, err)
		return reply{}, false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	id := e.ids.Add(1)
	prefix := "u"
	if p.traced {
		prefix = string(tracedPrefix)
	}
	req.Header[ridKey] = []string{prefix + strconv.FormatUint(id, 10)}
	if fl.cookie && p.cookie != "" {
		req.Header.Set("Cookie", sessionCookie+"="+p.cookie)
	}
	if fl.minSeq > 0 {
		req.Header.Set("X-GT-Min-Seq", strconv.FormatInt(fl.minSeq, 10))
	}
	tokenless := method == http.MethodGet && !fl.cookie && fl.minSeq == 0
	head := p.city.head.Load()

	due := p.due
	p.due = time.Time{}
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	p.rec.attempted++
	resp, err := e.hc.Do(req)
	if err != nil {
		p.rec.fail("%s %s: %v", method, path, err)
		return reply{}, false
	}
	p.rec.body.Reset()
	_, err = p.rec.body.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	rb := p.rec.body.Bytes()
	if err != nil {
		p.rec.fail("%s %s: read body: %v", method, path, err)
		return reply{}, false
	}
	if resp.StatusCode/100 != 2 {
		p.rec.fail("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(rb[:min(len(rb), 200)]))
		return reply{}, false
	}
	ms := float64(end.Sub(due)) / 1e6
	p.rec.lat[op] = append(p.rec.lat[op], ms)
	if e.tr != nil {
		if p.traced {
			e.tr.record(id, kindClient, nodeLoadgen, op, int64(start.Sub(e.tr.base)), int64(end.Sub(e.tr.base)))
			if op == opRead {
				p.rec.tracedRead = append(p.rec.tracedRead, ms)
			}
		} else if op == opRead {
			p.rec.untracedRead = append(p.rec.untracedRead, ms)
		}
	}
	if method == http.MethodPost {
		for _, c := range resp.Cookies() {
			if c.Name == sessionCookie {
				p.cookie = c.Value
			}
		}
		if seq, err := strconv.ParseInt(resp.Header.Get("X-GT-Seq"), 10, 64); err == nil {
			p.city.noteHead(seq)
		}
	}
	if tokenless {
		applied, _ := strconv.ParseInt(resp.Header.Get("X-GT-Applied-Seq"), 10, 64)
		behind := max(head-applied, 0)
		p.rec.staleness = append(p.rec.staleness, float64(behind))
		if behind > 0 {
			p.rec.stale++
		}
	}
	return reply{body: rb, hdr: resp.Header}, true
}

const sessionCookie = "gt-session"

func (p *persona) cityPath(format string, args ...any) string {
	return "/cities/" + p.city.key + fmt.Sprintf(format, args...)
}

// --- personas ---

// read is a token-less browser: three GETs of the city, its POIs, or a
// seeded group or package, with ids drawn zipf-skewed so a hot head of
// keys repeats and a long tail does not.
func (p *persona) read() {
	c := p.city
	ids := rand.NewZipf(p.r, 1.1, 1, uint64(len(c.pkgs)-1))
	for i := 0; i < 3; i++ {
		var path string
		switch p.r.IntN(4) {
		case 0:
			path = p.cityPath("")
		case 1:
			path = p.cityPath("/pois?k=%d", 4+p.r.IntN(5))
		case 2:
			path = p.cityPath("/groups/%d", c.groups[ids.Uint64()])
		default:
			path = p.cityPath("/packages/%d", c.pkgs[ids.Uint64()])
			if p.r.IntN(2) == 0 {
				path += "?routes=1"
			}
		}
		if _, ok := p.do(opRead, http.MethodGet, path, nil, floor{}); !ok {
			return
		}
	}
}

// plan creates a group of 2–12 members, builds a package, and reads it
// back. With wide builds the package asks for one of the eight category
// subsets with k in 2..14.
func (p *persona) plan() {
	bi := buildInput{
		city:      p.city.idx,
		members:   p.members(2 + p.r.IntN(11)),
		consensus: consensusNames[p.r.IntN(len(consensusNames))],
		k:         3 + p.r.IntN(5),
	}
	if p.e.w.wideBuilds {
		bi.k = planMinK + p.r.IntN(planKs)
		bi.query = planQueries[p.r.IntN(len(planQueries))]
	}
	b, ok := p.build(bi)
	if !ok {
		return
	}
	p.readBack(b.id, b.seq, b.body)
	p.e.replay.addBuild(bi)
}

// customize leases a seeded package, reads it, and applies three valid
// ops, each followed by a read-back that must show it.
func (p *persona) customize() {
	var l *lease
	select {
	case l = <-p.city.leases:
	default:
		p.rec.violate("city %s: no free package to lease", p.city.key)
		return
	}
	defer func() { p.city.leases <- l }()
	rep, ok := p.do(opRead, http.MethodGet, p.cityPath("/packages/%d", l.id), nil, floor{minSeq: l.seq})
	if !ok {
		return
	}
	if !bytes.Equal(rep.body, l.body) {
		p.rec.violate("package %s/%d: session read differs from the last read-back", p.city.key, l.id)
		return
	}
	var v pkgView
	if err := json.Unmarshal(rep.body, &v); err != nil {
		p.rec.violate("package %s/%d: %v", p.city.key, l.id, err)
		return
	}
	for i := 0; i < 3; i++ {
		body, seq, _, ok := p.op(l.id, &v, l.groupSize)
		if !ok {
			return
		}
		l.body, l.seq = body, seq
	}
}

// refine builds its own fresh package, applies 1–3 valid ops to it, then
// refines the group profile from them and rebuilds, alternating the
// batch and individual strategies.
func (p *persona) refine(batch bool) {
	bi := buildInput{
		city:      p.city.idx,
		members:   p.members(2 + p.r.IntN(11)),
		consensus: consensusNames[p.r.IntN(len(consensusNames))],
		k:         3 + p.r.IntN(5),
	}
	b, ok := p.build(bi)
	if !ok {
		return
	}
	if _, ok := p.readBack(b.id, b.seq, b.body); !ok {
		return
	}
	sess := sessionInput{build: bi, batch: batch}
	v := b.view
	for n := 1 + p.r.IntN(3); n > 0; n-- {
		_, _, op, ok := p.op(b.id, &v, len(bi.members))
		if !ok {
			return
		}
		sess.ops = append(sess.ops, op)
	}
	strategy := "individual"
	if batch {
		strategy = "batch"
	}
	body, _ := json.Marshal(map[string]any{"strategy": strategy, "rebuild": true})
	rep, ok := p.do(opRefine, http.MethodPost, p.cityPath("/packages/%d/refine", b.id), body, floor{})
	if !ok {
		return
	}
	var out struct {
		Operations int             `json:"operations"`
		NewPackage json.RawMessage `json:"newPackage"`
	}
	seq, _ := strconv.ParseInt(rep.hdr.Get("X-GT-Seq"), 10, 64)
	var nv pkgView
	if err := json.Unmarshal(rep.body, &out); err != nil || json.Unmarshal(out.NewPackage, &nv) != nil {
		p.rec.violate("refine %s/%d: undecodable reply", p.city.key, b.id)
		return
	}
	if out.Operations != len(sess.ops) || !nv.Valid || len(nv.Days) != bi.k || seq <= 0 {
		p.rec.violate("refine %s/%d: %d ops, valid %v, %d days (want %d ops, %d days), seq %d",
			p.city.key, b.id, out.Operations, nv.Valid, len(nv.Days), len(sess.ops), bi.k, seq)
		return
	}
	p.city.noteMade(nv.ID)
	p.readBack(nv.ID, seq, append(out.NewPackage, '\n'))
	p.e.replay.addSession(sess)
}

// members draws n members' ratings, 0–5 per schema dimension.
func (p *persona) members(n int) []map[string][]float64 {
	out := make([]map[string][]float64, n)
	for i := range out {
		m := make(map[string][]float64, len(catNames))
		for _, cat := range catNames {
			v := make([]float64, p.city.dims[cat])
			for j := range v {
				v[j] = float64(p.r.IntN(6))
			}
			m[cat] = v
		}
		out[i] = m
	}
	return out
}

// pkgView is the part of a package body the checks read.
type pkgView struct {
	ID    int  `json:"id"`
	Valid bool `json:"valid"`
	Days  []struct {
		Centroid struct{ Lat, Lon float64 } `json:"centroid"`
		Items    []struct {
			ID  int    `json:"id"`
			Cat string `json:"category"`
		} `json:"items"`
	} `json:"days"`
}

func (v *pkgView) has(day, poi int) bool {
	for _, it := range v.Days[day].Items {
		if it.ID == poi {
			return true
		}
	}
	return false
}

// built is one acknowledged package build.
type built struct {
	id    int
	group int
	seq   int64
	body  []byte // the body a later GET must return
	view  pkgView
}

// build creates the group and its package; the build must be valid with
// k days.
func (p *persona) build(bi buildInput) (built, bool) {
	body, _ := json.Marshal(map[string]any{"members": bi.members})
	rep, ok := p.do(opGroup, http.MethodPost, p.cityPath("/groups"), body, floor{})
	if !ok {
		return built{}, false
	}
	var g struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(rep.body, &g); err != nil {
		p.rec.violate("group %s: %v", p.city.key, err)
		return built{}, false
	}
	req := map[string]any{"group": g.ID, "consensus": bi.consensus, "k": bi.k}
	if bi.query != nil {
		req["query"] = bi.query
	}
	body, _ = json.Marshal(req)
	if rep, ok = p.do(opBuild, http.MethodPost, p.cityPath("/packages"), body, floor{}); !ok {
		return built{}, false
	}
	b := built{group: g.ID, body: stripSeq(rep.body)}
	b.seq, _ = strconv.ParseInt(rep.hdr.Get("X-GT-Seq"), 10, 64)
	if err := json.Unmarshal(rep.body, &b.view); err != nil {
		p.rec.violate("build %s: %v", p.city.key, err)
		return built{}, false
	}
	b.id = b.view.ID
	if !b.view.Valid || len(b.view.Days) != bi.k || b.seq <= 0 || b.body == nil {
		p.rec.violate("build %s/%d: valid %v with %d days (want %d), seq %d",
			p.city.key, b.id, b.view.Valid, len(b.view.Days), bi.k, b.seq)
		return built{}, false
	}
	p.city.noteMade(b.id)
	return b, true
}

// readBack fetches a package with the session cookie: the reply must be
// at or past the write's sequence and, when want is set, byte-identical
// to it.
func (p *persona) readBack(id int, seq int64, want []byte) (reply, bool) {
	rep, ok := p.do(opRead, http.MethodGet, p.cityPath("/packages/%d", id), nil, floor{cookie: true})
	if !ok {
		return rep, false
	}
	if applied, _ := strconv.ParseInt(rep.hdr.Get("X-GT-Applied-Seq"), 10, 64); applied < seq {
		p.rec.violate("read-back %s/%d: applied seq %d below write seq %d", p.city.key, id, applied, seq)
		return rep, false
	}
	if want != nil && !bytes.Equal(rep.body, want) {
		p.rec.violate("read-back %s/%d: body differs from the write's", p.city.key, id)
		return rep, false
	}
	return rep, true
}

// op applies one valid customization op to package id, whose current
// state is v: replace 60%, remove 20%, add 20%, on POIs the last
// read-back showed. The read-back after it must show the op's effect; v
// becomes that read-back.
func (p *persona) op(id int, v *pkgView, groupSize int) ([]byte, int64, opInput, bool) {
	day := p.r.IntN(len(v.Days))
	items := v.Days[day].Items
	in := opInput{member: p.r.IntN(groupSize), ci: day}
	switch u := p.r.Float64(); {
	case u < 0.6 && len(items) > 0:
		in.op = "replace"
	case u < 0.8 && len(items) > 2:
		in.op = "remove"
	default:
		in.op = "add"
	}
	if in.op == "add" {
		c := v.Days[day].Centroid
		path := p.cityPath("/pois?near=%.5f,%.5f&cat=%s&k=8", c.Lat, c.Lon, catNames[p.r.IntN(len(catNames))])
		rep, ok := p.do(opRead, http.MethodGet, path, nil, floor{})
		if !ok {
			return nil, 0, in, false
		}
		var near []struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(rep.body, &near); err != nil {
			p.rec.violate("pois near %s: %v", p.city.key, err)
			return nil, 0, in, false
		}
		in.poi = -1
		for _, n := range near {
			if !v.has(day, n.ID) {
				in.poi = n.ID
				break
			}
		}
		if in.poi < 0 {
			p.rec.violate("pois near %s: every candidate already in the day", p.city.key)
			return nil, 0, in, false
		}
	} else {
		in.poi = items[p.r.IntN(len(items))].ID
	}
	body, _ := json.Marshal(map[string]any{"member": in.member, "op": in.op, "ci": in.ci, "poi": in.poi})
	rep, ok := p.do(opCustomize, http.MethodPost, p.cityPath("/packages/%d/ops", id), body, floor{})
	if !ok {
		return nil, 0, in, false
	}
	var out struct {
		Applied     bool `json:"applied"`
		Replacement *struct {
			ID int `json:"id"`
		} `json:"replacement"`
	}
	seq, _ := strconv.ParseInt(rep.hdr.Get("X-GT-Seq"), 10, 64)
	if err := json.Unmarshal(rep.body, &out); err != nil || !out.Applied || seq <= 0 ||
		(in.op == "replace" && out.Replacement == nil) {
		p.rec.violate("op %s on %s/%d: not applied (seq %d)", in.op, p.city.key, id, seq)
		return nil, 0, in, false
	}
	back, ok := p.readBack(id, seq, nil)
	if !ok {
		return nil, 0, in, false
	}
	var nv pkgView
	if err := json.Unmarshal(back.body, &nv); err != nil || len(nv.Days) != len(v.Days) {
		p.rec.violate("op read-back %s/%d: undecodable or lost days", p.city.key, id)
		return nil, 0, in, false
	}
	var shown bool
	switch in.op {
	case "replace":
		shown = nv.has(day, out.Replacement.ID) && !nv.has(day, in.poi)
	case "remove":
		shown = !nv.has(day, in.poi)
	case "add":
		shown = nv.has(day, in.poi)
	}
	if !shown {
		p.rec.violate("op read-back %s/%d: %s of POI %d in day %d not shown", p.city.key, id, in.op, in.poi, day)
		return nil, 0, in, false
	}
	*v = nv
	return bytes.Clone(back.body), seq, in, true
}

// stripSeq turns a creation reply into the body a later GET returns: the
// same rendering without the trailing commit-token "seq" field. It
// returns nil when the reply carries no such field.
func stripSeq(b []byte) []byte {
	t := bytes.TrimRight(b, "\n")
	i := bytes.LastIndex(t, []byte(`,"seq":`))
	if i < 0 || len(t) == 0 || t[len(t)-1] != '}' {
		return nil
	}
	for _, ch := range t[i+len(`,"seq":`) : len(t)-1] {
		if ch < '0' || ch > '9' {
			return nil
		}
	}
	return append(append(make([]byte, 0, i+2), t[:i]...), '}', '\n')
}
