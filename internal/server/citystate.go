package server

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"grouptravel/internal/ci"
	"grouptravel/internal/consensus"
	"grouptravel/internal/core"
	"grouptravel/internal/dataset"
	"grouptravel/internal/interact"
	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
	"grouptravel/internal/registry"
	"grouptravel/internal/store"
	"grouptravel/internal/telemetry"
)

// cityState is one city's serving state: the group/package registries over
// the city's shared engine, plus the persistence plumbing.
//
// # Persistence model
//
// Durable state is snapshot + write-ahead log suffix. Every mutation
// commits by appending exactly one WAL record — O(1 record), regardless
// of how many groups and packages the city holds — and the full-state
// snapshot is only rewritten at *compaction*: when the log crosses the
// record-count or byte thresholds.
// Recovery (newCityState) loads the snapshot and replays the log tail.
type cityState struct {
	key    string
	city   *dataset.City
	engine *core.Engine

	// mu guards only the registries and id allocation; per-entity state is
	// guarded by the entity's own lock (see the package comment).
	mu       sync.RWMutex
	groups   map[int]*groupState
	packages map[int]*packageState
	nextID   int

	// snapDir holds the city's log, snapshot and epoch files.
	// persistMu orders mutations against compaction: a mutation holds the
	// read side across [WAL append + install] so compaction (write side:
	// collect + mark the log) can never collect a state whose record it
	// then trims — or miss a record its snapshot doesn't contain.
	// compacting admits one compaction or snapshot handoff at a time.
	snapDir      string
	wal          *store.WAL
	persistMu    sync.RWMutex
	compactEvery int64
	compacting   atomic.Bool
	snapTime     atomic.Int64 // unix nanos of the last successful compaction
	persistErr   atomic.Value // last persistence error string; "" once healthy

	// met holds the city's registry-backed counters (telemetry.go) —
	// the values both /healthz and /metrics report; compactDur is the
	// process-wide compaction-duration histogram.
	met        cityMetrics
	compactDur *telemetry.Histogram

	// notify is the city's commit broadcast (notify.go): woken after every
	// applied mutation — primary commits, follower frame applies, snapshot
	// handoffs, promotion — so push streams wake on commit instead of
	// sleeping a poll interval. streams carries the process-wide
	// push-stream instruments.
	notify  *commitNotify
	streams *streamMetrics

	// Replay facts from the last load, for /healthz. Immutable after
	// newCityState.
	replay       store.WALReplayInfo
	replayMillis float64

	// Follower apply state (follower.go). replMu serializes replication
	// applies; replSeq is the last applied sequence, the stream's resume
	// point. replStopped is set when the city does not replicate: from
	// the start on a primary, at promotion on a follower.
	replMu      sync.Mutex
	replSeq     int64
	replStopped bool

	// slots is the server's follower-position ledger (slots.go): push
	// streams feed it, compaction consults it. epochInfo reads the
	// server's replication term for stamping outgoing stream batches and
	// ending push streams across a term change.
	slots     *slotTable
	epochInfo func() (int64, string)
}

// groupState is one registered group. group is immutable after creation;
// mu guards the consensus memo.
type groupState struct {
	group *profile.Group

	mu       sync.Mutex
	profiles map[string]*profile.Profile // consensus name -> aggregated profile
}

// profileFor returns the group's aggregated profile under the named
// consensus method, memoizing unweighted aggregations. Weighted requests
// carry caller-specific weights, so they are computed per request and
// need no lock: the group never changes.
func (gs *groupState) profileFor(name string, method consensus.Method, weights []float64) (*profile.Profile, error) {
	if len(weights) > 0 {
		return consensus.GroupProfileWeighted(gs.group, method, weights)
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gp, ok := gs.profiles[name]; ok {
		return gp, nil
	}
	gp, err := consensus.GroupProfile(gs.group, method)
	if err != nil {
		return nil, err
	}
	gs.profiles[name] = gp
	return gp, nil
}

// packageState is one built package; mu serializes access to the
// customization session (interact.Session is not concurrency-safe).
// groupID, method and weights never change after creation.
type packageState struct {
	groupID int
	method  string
	weights []float64 // per-member consensus weights; nil when unweighted

	mu      sync.Mutex
	session *interact.Session
}

// newCityState recovers a city's serving state from its snapshot and
// log. Called by the registry on the city's first touch.
// Recovery is snapshot + WAL replay: the snapshot is the last compaction,
// the log holds every mutation since. A torn log tail was already
// truncated by the replayer (surfaced on /healthz); a corrupt snapshot
// quarantines both files — the log is a suffix over the snapshot and is
// meaningless without its base.
func (s *Server) newCityState(c *registry.City[*cityState]) (*cityState, error) {
	cs := &cityState{
		key:          c.Key,
		city:         c.City,
		engine:       c.Engine,
		groups:       make(map[int]*groupState),
		packages:     make(map[int]*packageState),
		nextID:       1,
		snapDir:      s.snapshotDir,
		compactEvery: s.compactEvery,
		met:          s.metrics.city(c.Key),
		compactDur:   s.metrics.compaction,
		notify:       newCommitNotify(),
		streams:      &s.metrics.streams,
		slots:        s.slots,
		epochInfo:    s.Epoch,
		// A city loaded after promotion is an ordinary read-write city.
		replStopped: s.upstream == "" || s.promoted.Load(),
	}
	cs.persistErr.Store("")

	start := time.Now()
	if err := cs.recoverState(); err != nil {
		return nil, err
	}
	wal, err := store.OpenWAL(cs.snapDir, cs.key)
	if err != nil {
		return nil, fmt.Errorf("server: wal for %q: %w", cs.key, err)
	}
	// Fsync latency grows with the *file* being synced, not the record
	// appended (ext4 journals metadata proportional to file size), so the
	// fsync histogram is partitioned by log size at sync time — the label
	// that explains why appends on a 100k-record log read slower than on a
	// fresh one while B/op stays flat.
	wal.Instrument(s.metrics.walAppend, s.metrics.fsyncBySize)
	wal.Seed(cs.replay.CurrentRecords, cs.replay.LastSeq)
	cs.wal = wal
	cs.replayMillis = float64(time.Since(start)) / float64(time.Millisecond)
	// A follower resumes replication where its own log ends.
	cs.replSeq = cs.replay.LastSeq
	return cs, nil
}

// materializeState builds the serving registries from a snapshot — the
// one route from durable form to live form, shared by restart recovery
// and a follower's snapshot handoff. The store validates structure
// against the city; consensus names are server vocabulary, so they are
// checked here, at load, rather than 500ing on the first /refine.
func materializeState(city *dataset.City, st *store.ServerState) (map[int]*groupState, map[int]*packageState, error) {
	groups := make(map[int]*groupState, len(st.Groups))
	packages := make(map[int]*packageState, len(st.Packages))
	for _, gr := range st.Groups {
		// The memo starts empty: snapshots carry no profiles, and
		// profileFor recomputes each one on first use.
		groups[gr.ID] = &groupState{group: gr.Group, profiles: map[string]*profile.Profile{}}
	}
	for _, pr := range st.Packages {
		if _, _, err := methodByName(pr.Method); err != nil {
			return nil, nil, fmt.Errorf("package %d: %w", pr.ID, err)
		}
		sess, err := interact.NewSession(city, pr.Package)
		if err != nil {
			return nil, nil, fmt.Errorf("restore package %d: %w", pr.ID, err)
		}
		// The persisted ops are already reflected in the package items;
		// reinstating the log keeps /refine seeing them after a restart.
		sess.SetLog(pr.Ops)
		packages[pr.ID] = &packageState{groupID: pr.GroupID, method: pr.Method, weights: pr.Weights, session: sess}
	}
	return groups, packages, nil
}

// recoverState installs the snapshot and replays the log over it through
// applyRecord. Corruption never fails the load: a snapshot that does not
// decode, validate or materialize quarantines the city's files and the
// city starts empty; a bad log record cuts the log there (replay repairs
// the file and reports the cut on /healthz). I/O failures are returned as
// errors so the registry forgets the load and the next request retries.
func (cs *cityState) recoverState() error {
	base, err := store.ReadSnapshot(cs.snapDir, cs.key, cs.city)
	if err != nil {
		// A transient I/O failure is not corruption: quarantining an
		// intact snapshot would orphan it, so fail this load instead.
		var corrupt *store.CorruptSnapshotError
		if !errors.As(err, &corrupt) {
			return fmt.Errorf("server: snapshot for %q: %w", cs.key, err)
		}
		cs.quarantineState(err)
		return nil
	}
	var after int64
	if base != nil {
		groups, packages, err := materializeState(cs.city, base)
		if err != nil {
			cs.quarantineState(err)
			return nil
		}
		cs.groups, cs.packages, cs.nextID = groups, packages, base.NextID
		after = base.WALSeq
	}
	info, err := store.ReplayWAL(cs.snapDir, cs.key, cs.city, after, cs.applyRecord)
	if err != nil {
		return fmt.Errorf("server: wal replay for %q: %w", cs.key, err)
	}
	cs.replay = *info
	return nil
}

// applyRecord applies one decoded log record to the serving state. It is
// the one place a record's meaning lives: restart recovery replays the
// log through it, and a follower applies shipped frames through it, so
// replay and replication cannot disagree. Every check that needs the
// state runs before anything changes, so a rejected record leaves the
// state as it was — replay cuts the log there, a follower stops at it.
func (cs *cityState) applyRecord(rec store.Record) error {
	switch rec.Kind {
	case store.RecordGroupCreate:
		cs.mu.Lock()
		defer cs.mu.Unlock()
		if err := cs.claimIDLocked(rec.ID); err != nil {
			return err
		}
		cs.groups[rec.ID] = &groupState{group: rec.Group, profiles: map[string]*profile.Profile{}}

	case store.RecordPackageBuild, store.RecordRefine:
		if _, _, err := methodByName(rec.Method); err != nil {
			return fmt.Errorf("package %d: %w", rec.ID, err)
		}
		sess, err := interact.NewSession(cs.city, rec.Package)
		if err != nil {
			return err
		}
		cs.mu.Lock()
		defer cs.mu.Unlock()
		gs := cs.groups[rec.GroupID]
		if gs == nil {
			return fmt.Errorf("%s references unknown group %d", rec.Kind, rec.GroupID)
		}
		if n := len(rec.Weights); n > 0 && n != gs.group.Size() {
			return fmt.Errorf("%s has %d weights for a group of %d", rec.Kind, n, gs.group.Size())
		}
		if err := cs.claimIDLocked(rec.ID); err != nil {
			return err
		}
		cs.packages[rec.ID] = &packageState{groupID: rec.GroupID, method: rec.Method, weights: rec.Weights, session: sess}

	case store.RecordCustomOp:
		cs.mu.RLock()
		ps := cs.packages[rec.PackageID]
		var gs *groupState
		if ps != nil {
			gs = cs.groups[ps.groupID]
		}
		cs.mu.RUnlock()
		if ps == nil || gs == nil {
			return fmt.Errorf("customOp references unknown package %d", rec.PackageID)
		}
		op := rec.Op
		if op.Member >= gs.group.Size() {
			return fmt.Errorf("customOp member %d outside a group of %d", op.Member, gs.group.Size())
		}
		ps.mu.Lock()
		defer ps.mu.Unlock()
		return ps.session.Apply(op, rec.After)

	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return nil
}

// claimIDLocked admits the id a log record allocated: positive, unused by
// any group or package, and the allocator moves past it. cs.mu is held.
func (cs *cityState) claimIDLocked(id int) error {
	if id < 1 {
		return fmt.Errorf("id %d out of range", id)
	}
	if cs.groups[id] != nil || cs.packages[id] != nil {
		return fmt.Errorf("duplicate id %d", id)
	}
	cs.nextID = max(cs.nextID, id+1)
	return nil
}

// quarantineState moves the snapshot and log aside (to <file>.corrupt) so
// the next compaction cannot overwrite the only copy of the previously
// committed state, and records the failure for /healthz. The moved files
// are the operator's recovery artifacts. The log goes with the snapshot:
// it is a suffix over that exact base and cannot replay without it.
func (cs *cityState) quarantineState(cause error) {
	moved := make([]string, 0, 3)
	for _, src := range []string{
		store.SnapshotPath(cs.snapDir, cs.key),
		store.WALPath(cs.snapDir, cs.key),
		store.PendingWALPath(cs.snapDir, cs.key),
	} {
		if _, err := os.Stat(src); err != nil {
			continue
		}
		dst := src + ".corrupt"
		if err := os.Rename(src, dst); err != nil {
			cs.persistErr.Store(fmt.Sprintf("state ignored (quarantine failed: %v): %v", err, cause))
			return
		}
		moved = append(moved, dst)
	}
	cs.persistErr.Store(fmt.Sprintf("state ignored (moved to %v): %v", moved, cause))
}

// Why a planned mutation did not commit: its log append failed, so
// nothing was installed (503); or its durable record did not install —
// the plan and applyRecord disagree, a bug (500).
var (
	errNotLogged    = errors.New("server: write-ahead log append failed; nothing was applied")
	errNotInstalled = errors.New("server: logged record not installed")
)

// commit is the second half of every mutation — log first, install
// second. The handler planned rec from live state without changing it;
// commit appends it and installs it only once the append is durable,
// through applyRecord (what restart and replication run) or, for an op,
// through Session.Apply, which applyRecord's customOp case calls too.
//
// The caller holds the read side of persistMu, taken before any entity
// lock (compaction holds the write side while it takes every package
// lock), and holds the lock of the entity rec changes from planning
// until commit returns: one entity's records log in install order, and
// appliedSeq's stamp stays a lower bound. A create reserves its id
// instead (create).
func (cs *cityState) commit(rec store.Record, install func(store.Record) error) (int64, error) {
	seq, err := cs.wal.Append(rec)
	if err != nil {
		cs.persistErr.Store(err.Error())
		return 0, fmt.Errorf("%w: %v", errNotLogged, err)
	}
	rec.Seq = seq
	if err := install(rec); err != nil {
		err = fmt.Errorf("%w: seq %d: %v", errNotInstalled, seq, err)
		cs.persistErr.Store(err.Error())
		return 0, err
	}
	return seq, nil
}

// committed runs after a commit released its locks: push streams wake
// with the new head, and the log compacts if it crossed a threshold.
func (cs *cityState) committed() {
	cs.notify.wake(cs.appliedSeq())
	cs.maybeCompact()
}

// create commits a record that registers an entity under a fresh id — a
// group, or a built or refined package. The id is reserved under cs.mu
// before the append; one whose append fails is burned for the life of
// the process (a restart may reuse it: no response named it).
func (cs *cityState) create(rec store.Record) (int, int64, error) {
	cs.persistMu.RLock()
	cs.mu.Lock()
	rec.ID = cs.nextID
	cs.nextID++
	cs.mu.Unlock()
	seq, err := cs.commit(rec, cs.applyRecord)
	cs.persistMu.RUnlock()
	if err != nil {
		return 0, 0, err
	}
	cs.committed()
	return rec.ID, seq, nil
}

// customize commits one §3.3 op on package pid. run applies the operator
// to a scratch session over the package — a CI-level copy — so the live
// session changes only once the op's record (the scratch session's one
// logged op and its post-op CI) is durable. An operator error commits
// nothing.
func (cs *cityState) customize(pid int, ps *packageState, run func(*interact.Session) error) (int64, error) {
	seq, err := cs.customizeLocked(pid, ps, run)
	if err != nil {
		return 0, err
	}
	cs.committed()
	return seq, nil
}

func (cs *cityState) customizeLocked(pid int, ps *packageState, run func(*interact.Session) error) (int64, error) {
	cs.persistMu.RLock()
	defer cs.persistMu.RUnlock()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	scratch, err := interact.NewSession(cs.city, ps.session.Package())
	if err != nil {
		return 0, err
	}
	if err := run(scratch); err != nil {
		return 0, err
	}
	op := scratch.Log()[0]
	rec := store.Record{Kind: store.RecordCustomOp, PackageID: pid, Op: op, After: scratch.Package().CIs[op.CIIndex]}
	return cs.commit(rec, func(r store.Record) error { return ps.session.Apply(r.Op, r.After) })
}

// maybeCompact starts a compaction when the log crosses a threshold. The
// snapshot write is O(city state), so it runs on a background goroutine —
// the mutating request that crossed the threshold answers immediately.
// One compaction runs at a time; contemporaries skip rather than queue
// (the next mutation past the threshold re-triggers).
func (cs *cityState) maybeCompact() {
	st := cs.wal.Stats()
	overRecords := cs.compactEvery > 0 && st.Records >= cs.compactEvery
	overBytes := st.Bytes >= DefaultCompactBytes
	if !overRecords && !overBytes {
		return
	}
	// The log stays over its threshold until a running compaction trims
	// it, so claim the slot before consulting the slot table: the
	// mutations that land meanwhile must not move its hold clock.
	if !cs.compacting.CompareAndSwap(false, true) {
		return
	}
	// Fan-out awareness: while a live follower's stream position still
	// needs records this compaction would fold into the snapshot, wait —
	// it keeps streaming cheap frames instead of taking a full handoff.
	// The slot table's own deadlines bound the wait (a dead follower is
	// collected, a stuck one is dropped), and the next mutation past the
	// threshold re-triggers.
	if cs.slots.hold(cs.key, cs.wal.LastSeq()) {
		cs.compacting.Store(false)
		return
	}
	go func() {
		defer cs.compacting.Store(false)
		_ = cs.compact()
	}()
}

// compact folds the log into the snapshot; the caller holds the
// compacting flag. Under the write lock it only collects the state (an
// in-memory clone) and marks the log; the O(city state) snapshot encode +
// write + fsync then runs *outside* persistMu, so mutations keep
// appending instead of stalling for seconds behind a 100k-package
// snapshot. Only once the snapshot, which records the mark's sequence as
// its watermark (WALSeq), is durable does the trim drop the records up to
// the mark. A crash therefore recovers exactly: before the snapshot lands
// → old snapshot + whole log; snapshot landed, log not yet trimmed →
// replay skips the covered sequences; trimmed → new snapshot + the
// records after the mark. Failures leave the log intact (recovery still
// works) and are recorded for /healthz rather than failing the mutation
// that triggered the compaction.
func (cs *cityState) compact() error {
	start := time.Now()
	cs.persistMu.Lock()
	st := cs.collectState()
	mark := cs.wal.Mark()
	cs.persistMu.Unlock()
	st.WALSeq = mark.Seq

	at, err := store.WriteSnapshot(cs.snapDir, cs.key, st)
	if err == nil {
		err = cs.wal.Trim(mark)
	}
	if err != nil {
		cs.persistErr.Store(err.Error())
		return err
	}
	cs.compactDur.ObserveSince(start)
	cs.noteCompaction(at)
	return nil
}

func (cs *cityState) noteCompaction(at time.Time) {
	cs.snapTime.Store(at.UnixNano())
	cs.met.compactions.Inc()
	cs.persistErr.Store("")
}

// clonePackage deep-copies a package at the CI level so snapshot encoding
// can run outside the package lock while the session keeps mutating the
// original. POIs are immutable and shared.
func clonePackage(tp *core.TravelPackage) *core.TravelPackage {
	cp := *tp
	cp.CIs = make([]*ci.CI, len(tp.CIs))
	for i, c := range tp.CIs {
		cc := *c
		cc.Items = append([]*poi.POI(nil), c.Items...)
		cp.CIs[i] = &cc
	}
	return &cp
}

// collectState assembles the city's full persistent state. It follows the
// lock hierarchy: the registry lock is released before any entity lock is
// taken.
func (cs *cityState) collectState() *store.ServerState {
	cs.mu.RLock()
	st := &store.ServerState{City: cs.city.Name, NextID: cs.nextID}
	groupIDs := make([]int, 0, len(cs.groups))
	groups := make(map[int]*groupState, len(cs.groups))
	for id, gs := range cs.groups {
		groupIDs = append(groupIDs, id)
		groups[id] = gs
	}
	pkgIDs := make([]int, 0, len(cs.packages))
	pkgs := make(map[int]*packageState, len(cs.packages))
	for id, ps := range cs.packages {
		pkgIDs = append(pkgIDs, id)
		pkgs[id] = ps
	}
	cs.mu.RUnlock()
	sort.Ints(groupIDs)
	sort.Ints(pkgIDs)

	for _, id := range groupIDs {
		st.Groups = append(st.Groups, store.GroupRecord{ID: id, Group: groups[id].group})
	}
	for _, id := range pkgIDs {
		ps := pkgs[id]
		ps.mu.Lock()
		tp := clonePackage(ps.session.Package())
		ops := append([]interact.Op(nil), ps.session.Log()...)
		ps.mu.Unlock()
		st.Packages = append(st.Packages, store.PackageRecord{
			ID: id, GroupID: ps.groupID, Method: ps.method, Weights: ps.weights, Package: tp, Ops: ops,
		})
	}
	return st
}

// appliedSeq is the city's current WAL position: the last appended
// sequence on a primary, the last applied sequence on a follower (frames
// are re-appended verbatim AFTER they apply, so the local log head
// never runs ahead of the serving state — the invariant a router's
// freshness pinning relies on). 0 until the city's first record. On a
// primary the head runs ahead of install, yet a GET of entity X stamped
// S still reflects every write to X at or below S: withCity reads the
// stamp before the handler takes X's lock, and every such write took
// that lock before its append and releases it only after install. An
// entity still being created answers 404, and nothing caches a 404.
func (cs *cityState) appliedSeq() int64 { return cs.wal.LastSeq() }

// health summarizes the city for the health endpoint.
func (cs *cityState) health() cityHealth {
	cs.mu.RLock()
	groups, packages := len(cs.groups), len(cs.packages)
	cs.mu.RUnlock()
	// Counters read .Value() off the same registry series /metrics
	// renders — one value set, two surfaces, no drift.
	h := cityHealth{
		Cache:        cs.engine.CacheStats(),
		Groups:       groups,
		Packages:     packages,
		LastSnapshot: lastSnapshotString(cs.snapTime.Load()),
	}
	if msg, _ := cs.persistErr.Load().(string); msg != "" {
		h.PersistErr = msg
	}
	ws := cs.wal.Stats()
	h.WAL = &walHealth{
		Records:         ws.Records,
		Bytes:           ws.Bytes,
		Fsyncs:          ws.Fsyncs,
		Compactions:     cs.met.compactions.Value(),
		Replayed:        cs.replay.Records,
		ReplayMillis:    cs.replayMillis,
		ReplayTruncated: cs.replay.Truncated,
	}
	return h
}
