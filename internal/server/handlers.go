package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"grouptravel/internal/ci"
	"grouptravel/internal/consensus"
	"grouptravel/internal/core"
	"grouptravel/internal/geo"
	"grouptravel/internal/interact"
	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
	"grouptravel/internal/query"
	"grouptravel/internal/route"
	"grouptravel/internal/store"
)

// Commit-token and replica-routing headers. Every mutation response
// carries its committed (city, seq) token: X-GT-City names the city the
// record landed in, X-GT-Seq its write-ahead-log sequence. A client (or
// a front-tier router on its behalf) that holds the token can demand
// reads from replicas at or past that sequence — read-your-writes over
// eventually-consistent followers. X-GT-Primary is the pointer a
// read-only replica answers mutations with (403).
const (
	HeaderSeq     = "X-GT-Seq"
	HeaderCity    = "X-GT-City"
	HeaderPrimary = "X-GT-Primary"
	// HeaderAppliedSeq is stamped on every city-scoped GET response: the
	// city's applied WAL sequence at the moment the response was prepared
	// — a lower bound on the state the body reflects (state only moves
	// forward between the stamp and the render, never back). Any client —
	// a router's edge cache, a CDN, a test — can validate read freshness
	// against a commit token without a second round trip. Absent when the
	// city runs without persistence: no sequence space exists then.
	HeaderAppliedSeq = "X-GT-Applied-Seq"
)

// seqToken stamps a mutation's commit token onto the response headers;
// it must run before the status line is written. A zero sequence (no
// persistence configured — and therefore no replicas to outrun) stamps
// nothing.
func (cs *cityState) seqToken(w http.ResponseWriter, seq int64) {
	if seq > 0 {
		w.Header().Set(HeaderCity, cs.key)
		w.Header().Set(HeaderSeq, strconv.FormatInt(seq, 10))
	}
}

// --- city & POIs ---

type cityResponse struct {
	Key    string              `json:"key"`
	Name   string              `json:"name"`
	Counts map[string]int      `json:"poiCounts"`
	Schema map[string][]string `json:"schema"`
	Bounds map[string]float64  `json:"bounds"`
}

func (cs *cityState) handleCity(w http.ResponseWriter, _ *http.Request) {
	counts := cs.city.POIs.CategoryCounts()
	resp := cityResponse{
		Key:    cs.key,
		Name:   cs.city.Name,
		Counts: map[string]int{},
		Schema: map[string][]string{},
	}
	for _, c := range poi.Categories {
		resp.Counts[c.String()] = counts[c]
		resp.Schema[c.String()] = cs.city.Schema.Labels(c)
	}
	b := cs.city.POIs.Bounds()
	resp.Bounds = map[string]float64{"lat": b.Lat, "lon": b.Lon, "width": b.Width, "height": b.Height}
	writeJSON(w, http.StatusOK, resp)
}

type poiResponse struct {
	ID   int     `json:"id"`
	Name string  `json:"name"`
	Cat  string  `json:"category"`
	Lat  float64 `json:"lat"`
	Lon  float64 `json:"lon"`
	Type string  `json:"type"`
	Cost float64 `json:"cost"`
}

func toPOIResponse(p *poi.POI) poiResponse {
	return poiResponse{
		ID: p.ID, Name: p.Name, Cat: p.Cat.String(),
		Lat: p.Coord.Lat, Lon: p.Coord.Lon, Type: p.Type, Cost: p.Cost,
	}
}

// handlePOIs lists POIs, optionally filtered by category and/or nearest to
// a point: .../pois?cat=rest&near=48.85,2.35&k=10
func (cs *cityState) handlePOIs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var cat *poi.Category
	if cString := q.Get("cat"); cString != "" {
		c, err := poi.ParseCategory(cString)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad cat: %v", err)
			return
		}
		cat = &c
	}
	k := 20
	if ks := q.Get("k"); ks != "" {
		n, err := strconv.Atoi(ks)
		if err != nil || n < 1 || n > 500 {
			writeErr(w, http.StatusBadRequest, "bad k %q", ks)
			return
		}
		k = n
	}
	var out []poiResponse
	if near := q.Get("near"); near != "" {
		parts := strings.Split(near, ",")
		if len(parts) != 2 {
			writeErr(w, http.StatusBadRequest, "near must be lat,lon")
			return
		}
		lat, err1 := strconv.ParseFloat(parts[0], 64)
		lon, err2 := strconv.ParseFloat(parts[1], 64)
		if err1 != nil || err2 != nil {
			writeErr(w, http.StatusBadRequest, "near must be lat,lon")
			return
		}
		for _, p := range cs.city.POIs.Nearest(geo.Point{Lat: lat, Lon: lon}, k, cat, nil) {
			out = append(out, toPOIResponse(p))
		}
	} else {
		pois := cs.city.POIs.All()
		if cat != nil {
			pois = cs.city.POIs.ByCategory(*cat)
		}
		for i, p := range pois {
			if i >= k {
				break
			}
			out = append(out, toPOIResponse(p))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// --- groups ---

type createGroupRequest struct {
	// Members' ratings per category: 0-5 per type/topic, dimensions per
	// the city's schema (GET /cities/{city}).
	Members []map[string][]float64 `json:"members"`
}

type groupResponse struct {
	ID         int     `json:"id"`
	Size       int     `json:"size"`
	Uniformity float64 `json:"uniformity"`
	MedianUser int     `json:"medianUser"`
	// Seq is the creating mutation's committed WAL sequence (the commit
	// token, mirrored in X-GT-Seq); 0 on reads and without persistence.
	Seq int64 `json:"seq,omitempty"`
}

func (cs *cityState) handleCreateGroup(w http.ResponseWriter, r *http.Request) {
	var req createGroupRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	if len(req.Members) == 0 {
		writeErr(w, http.StatusBadRequest, "a group needs at least one member")
		return
	}
	members := make([]*profile.Profile, 0, len(req.Members))
	for i, m := range req.Members {
		ratings := map[poi.Category][]float64{}
		for cString, vals := range m {
			c, err := poi.ParseCategory(cString)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "member %d: %v", i, err)
				return
			}
			ratings[c] = vals
		}
		p, err := profile.FromRatings(cs.city.Schema, ratings)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "member %d: %v", i, err)
			return
		}
		members = append(members, p)
	}
	g, err := profile.NewGroup(cs.city.Schema, members)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	var id int
	seq := cs.commit(func(logRec func(store.WALRecord)) {
		cs.mu.Lock()
		id = cs.nextID
		cs.nextID++
		cs.groups[id] = &groupState{group: g, profiles: map[string]*profile.Profile{}}
		cs.mu.Unlock()
		logRec(store.GroupCreateRecord(id, g))
	})
	cs.seqToken(w, seq)
	writeJSON(w, http.StatusCreated, groupResponse{
		ID: id, Size: g.Size(), Uniformity: g.Uniformity(), MedianUser: g.MedianUser(), Seq: seq,
	})
}

func (cs *cityState) lookupGroup(id int) (*groupState, error) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	gs, ok := cs.groups[id]
	if !ok {
		return nil, fmt.Errorf("group %d not found", id)
	}
	return gs, nil
}

func (cs *cityState) groupByID(idStr string) (*groupState, int, error) {
	id, err := strconv.Atoi(idStr)
	if err != nil {
		return nil, 0, fmt.Errorf("bad group id %q", idStr)
	}
	gs, err := cs.lookupGroup(id)
	if err != nil {
		return nil, 0, err
	}
	return gs, id, nil
}

func (cs *cityState) handleGetGroup(w http.ResponseWriter, r *http.Request) {
	gs, id, err := cs.groupByID(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, groupResponse{
		ID: id, Size: gs.group.Size(), Uniformity: gs.group.Uniformity(), MedianUser: gs.group.MedianUser(),
	})
}

// --- packages ---

type createPackageRequest struct {
	GroupID   int       `json:"group"`
	Consensus string    `json:"consensus"` // avg | leastmisery | pairwise | variance
	K         int       `json:"k"`
	Query     *queryReq `json:"query,omitempty"`
	Weights   []float64 `json:"weights,omitempty"` // optional per-member weights
}

type queryReq struct {
	Acco, Trans, Rest, Attr int
	Budget                  float64 // <= 0 means unlimited
}

type packageResponse struct {
	ID    int       `json:"id"`
	City  string    `json:"city"`
	Query string    `json:"query"`
	Days  []dayJSON `json:"days"`
	Dims  dimsJSON  `json:"dimensions"`
	Valid bool      `json:"valid"`
	// Seq is the creating mutation's committed WAL sequence (the commit
	// token, mirrored in X-GT-Seq); 0 on reads and without persistence.
	Seq int64 `json:"seq,omitempty"`
}

type dayJSON struct {
	Centroid geo.Point     `json:"centroid"`
	Cost     float64       `json:"cost"`
	WalkKm   float64       `json:"walkKm,omitempty"`
	Items    []poiResponse `json:"items"`
}

type dimsJSON struct {
	Representativity float64 `json:"representativity"`
	WithinCIKm       float64 `json:"withinCIKm"`
	Personalization  float64 `json:"personalization"`
}

// methodByName resolves a consensus name (with aliases) to the method and
// its canonical name. The canonical name — not the raw request string — is
// what the profile memo and persisted package records key on, so "avg" and
// "average" share one memoized aggregation.
func methodByName(name string) (consensus.Method, string, error) {
	switch strings.ToLower(name) {
	case "", "pairwise":
		return consensus.PairwiseDis, "pairwise", nil
	case "avg", "average":
		return consensus.AveragePref, "avg", nil
	case "leastmisery", "lm":
		return consensus.LeastMisery, "leastmisery", nil
	case "variance":
		return consensus.VarianceDis, "variance", nil
	case "mostpleasure":
		return consensus.MostPleasure, "mostpleasure", nil
	case "avgnomisery":
		return consensus.AvgNoMisery, "avgnomisery", nil
	default:
		return consensus.Method{}, "", fmt.Errorf("unknown consensus %q", name)
	}
}

func (cs *cityState) handleCreatePackage(w http.ResponseWriter, r *http.Request) {
	var req createPackageRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	gs, err := cs.lookupGroup(req.GroupID)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	method, canon, err := methodByName(req.Consensus)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	q := query.Default()
	if req.Query != nil {
		budget := req.Query.Budget
		if budget <= 0 {
			budget = query.Default().Budget
		}
		q, err = query.New(req.Query.Acco, req.Query.Trans, req.Query.Rest, req.Query.Attr, budget)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	k := req.K
	if k == 0 {
		k = 5
	}
	if k < 1 || k > 30 {
		writeErr(w, http.StatusBadRequest, "k = %d out of range [1,30]", k)
		return
	}

	gp, err := gs.profileFor(canon, method, req.Weights)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The build runs outside every lock: the engine is concurrency-safe,
	// so packages for different groups (or different queries, or different
	// cities) construct in parallel.
	tp, err := cs.engine.Build(gp, q, core.DefaultParams(k))
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	sess, err := interact.NewSession(cs.city, tp)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	ps := &packageState{groupID: req.GroupID, method: canon, session: sess}
	var id int
	seq := cs.commit(func(logRec func(store.WALRecord)) {
		id = cs.register(ps)
		logRec(store.PackageBuildRecord(id, req.GroupID, canon, tp))
	})
	ps.mu.Lock()
	resp := cs.renderPackage(id, ps, false)
	ps.mu.Unlock()
	resp.Seq = seq
	cs.seqToken(w, seq)
	writeJSON(w, http.StatusCreated, resp)
}

// renderPackage renders a package; the caller holds ps.mu.
func (cs *cityState) renderPackage(id int, ps *packageState, routes bool) packageResponse {
	tp := ps.session.Package()
	resp := packageResponse{ID: id, City: tp.City, Query: tp.Query.String(), Valid: tp.Valid()}
	d := tp.Measure()
	resp.Dims = dimsJSON{
		Representativity: d.Representativity,
		WithinCIKm:       d.RawDistance,
		Personalization:  d.Personalization,
	}
	for _, c := range tp.CIs {
		day := dayJSON{Centroid: c.Centroid, Cost: c.Cost()}
		items := c.Items
		if routes {
			if plan, err := route.PlanDay(c); err == nil {
				ordered := make([]*poi.POI, len(plan.Order))
				for i, idx := range plan.Order {
					ordered[i] = c.Items[idx]
				}
				items = ordered
				day.WalkKm = plan.LengthKm
			}
		}
		for _, it := range items {
			day.Items = append(day.Items, toPOIResponse(it))
		}
		resp.Days = append(resp.Days, day)
	}
	return resp
}

func (cs *cityState) packageByID(idStr string) (*packageState, int, error) {
	id, err := strconv.Atoi(idStr)
	if err != nil {
		return nil, 0, fmt.Errorf("bad package id %q", idStr)
	}
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	ps, ok := cs.packages[id]
	if !ok {
		return nil, 0, fmt.Errorf("package %d not found", id)
	}
	return ps, id, nil
}

func (cs *cityState) handleGetPackage(w http.ResponseWriter, r *http.Request) {
	ps, id, err := cs.packageByID(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	routes := r.URL.Query().Get("routes") == "1"
	ps.mu.Lock()
	resp := cs.renderPackage(id, ps, routes)
	ps.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// --- customization operators ---

type opRequest struct {
	Member int       `json:"member"`
	Op     string    `json:"op"` // remove | add | replace | generate
	CI     int       `json:"ci"`
	POI    int       `json:"poi"`
	Rect   *geo.Rect `json:"rect,omitempty"`
}

type opResponse struct {
	Applied     bool         `json:"applied"`
	Replacement *poiResponse `json:"replacement,omitempty"`
	NewCI       *dayJSON     `json:"newCI,omitempty"`
	// Seq is the op's committed WAL sequence (the commit token, mirrored
	// in X-GT-Seq); 0 without persistence.
	Seq int64 `json:"seq,omitempty"`
}

func (cs *cityState) handleOps(w http.ResponseWriter, r *http.Request) {
	ps, pid, err := cs.packageByID(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	var req opRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	cs.mu.RLock()
	gs := cs.groups[ps.groupID]
	cs.mu.RUnlock()
	if req.Member < 0 || (gs != nil && req.Member >= gs.group.Size()) {
		writeErr(w, http.StatusBadRequest, "member %d outside the group", req.Member)
		return
	}
	// Validate the op shape before taking the package lock, so the
	// critical section below has a single exit.
	op := strings.ToLower(req.Op)
	switch op {
	case "remove", "add", "replace", "generate":
	default:
		writeErr(w, http.StatusBadRequest, "unknown op %q", req.Op)
		return
	}
	if op == "generate" && req.Rect == nil {
		writeErr(w, http.StatusBadRequest, "generate requires rect")
		return
	}
	// Session mutations serialize on the package's own lock; operations on
	// other packages proceed concurrently. The WAL record is captured AND
	// appended in the same critical section as the op: the logged post-op
	// CI state must be exactly what this op produced, and the log order
	// must match the application order — a record landing behind a later
	// op's record would replay the older CI state on top of the newer.
	resp := opResponse{}
	seq := cs.commit(func(logRec func(store.WALRecord)) {
		ps.mu.Lock()
		defer ps.mu.Unlock()
		switch op {
		case "remove":
			err = ps.session.Remove(req.Member, req.CI, req.POI)
		case "add":
			err = ps.session.Add(req.Member, req.CI, req.POI)
		case "replace":
			var repl *poi.POI
			repl, err = ps.session.Replace(req.Member, req.CI, req.POI)
			if err == nil {
				pr := toPOIResponse(repl)
				resp.Replacement = &pr
			}
		case "generate":
			var newCI *ci.CI
			newCI, err = ps.session.Generate(req.Member, *req.Rect)
			if err == nil {
				day := dayJSON{Centroid: newCI.Centroid, Cost: newCI.Cost()}
				for _, it := range newCI.Items {
					day.Items = append(day.Items, toPOIResponse(it))
				}
				resp.NewCI = &day
			}
		}
		if err != nil {
			return
		}
		log := ps.session.Log()
		applied := log[len(log)-1]
		logRec(store.CustomOpRecord(pid, applied, ps.session.Package().CIs[applied.CIIndex]))
	})
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	resp.Applied = true
	resp.Seq = seq
	cs.seqToken(w, seq)
	writeJSON(w, http.StatusOK, resp)
}

// --- refinement ---

type refineRequest struct {
	Strategy string `json:"strategy"` // batch | individual
	Rebuild  bool   `json:"rebuild"`  // also build a new package from the refined profile
	K        int    `json:"k"`
}

type refineResponse struct {
	Strategy   string           `json:"strategy"`
	Operations int              `json:"operations"`
	NewPackage *packageResponse `json:"newPackage,omitempty"`
	// Seq is the rebuild's committed WAL sequence (the commit token,
	// mirrored in X-GT-Seq); 0 when nothing was rebuilt — a refine
	// without rebuild mutates nothing.
	Seq int64 `json:"seq,omitempty"`
}

func (cs *cityState) handleRefine(w http.ResponseWriter, r *http.Request) {
	ps, pid, err := cs.packageByID(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	var req refineRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	cs.mu.RLock()
	gs, ok := cs.groups[ps.groupID]
	cs.mu.RUnlock()
	if !ok {
		writeErr(w, http.StatusConflict, "group %d no longer exists", ps.groupID)
		return
	}
	method, _, err := methodByName(ps.method)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// Snapshot the session and compute the refined profile under the
	// package lock (the log is shared mutable state); the rebuild below
	// runs on the engine without any lock.
	ps.mu.Lock()
	tp := ps.session.Package()
	base := tp.Group
	if base == nil {
		ps.mu.Unlock()
		writeErr(w, http.StatusUnprocessableEntity, "package was not personalized")
		return
	}
	ops := ps.session.Log()

	var refined *profile.Profile
	switch strings.ToLower(req.Strategy) {
	case "", "batch":
		refined, err = interact.RefineBatch(base, ops)
		req.Strategy = "batch"
	case "individual":
		_, refined, err = interact.RefineIndividual(gs.group, method, ops)
	default:
		ps.mu.Unlock()
		writeErr(w, http.StatusBadRequest, "unknown strategy %q", req.Strategy)
		return
	}
	nOps := len(ops)
	kFallback := len(tp.CIs)
	q := tp.Query
	ps.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	resp := refineResponse{Strategy: strings.ToLower(req.Strategy), Operations: nOps}
	if req.Rebuild {
		k := req.K
		if k == 0 {
			k = kFallback
		}
		// Same bound as package creation: an unchecked K here would let
		// one request run an arbitrarily large clustering.
		if k < 1 || k > 30 {
			writeErr(w, http.StatusBadRequest, "k = %d out of range [1,30]", k)
			return
		}
		newTP, err := cs.engine.Build(refined, q, core.DefaultParams(k))
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		sess, err := interact.NewSession(cs.city, newTP)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		nps := &packageState{groupID: ps.groupID, method: ps.method, session: sess}
		var id int
		resp.Seq = cs.commit(func(logRec func(store.WALRecord)) {
			id = cs.register(nps)
			logRec(store.RefineRecord(id, ps.groupID, ps.method, newTP, pid, resp.Strategy))
		})
		nps.mu.Lock()
		pr := cs.renderPackage(id, nps, false)
		nps.mu.Unlock()
		resp.NewPackage = &pr
	}
	cs.seqToken(w, resp.Seq)
	writeJSON(w, http.StatusOK, resp)
}
