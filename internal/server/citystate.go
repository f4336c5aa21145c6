package server

import (
	"errors"
	"fmt"
	"math"
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

	// snapDir is empty when persistence is off (wal is nil then too).
	// persistMu orders mutations against compaction: a mutation holds the
	// read side across [in-memory commit + WAL append] so compaction
	// (write side: collect + snapshot + log reset) can never collect a
	// state whose record it then truncates — or miss a record its
	// snapshot doesn't contain.
	snapDir      string
	wal          *store.WAL
	persistMu    sync.RWMutex
	compactEvery int64
	compactBytes int64
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

	// replica is the follower-mode apply state (see follower.go); nil on
	// primaries and set once at construction.
	replica *replicaMirror

	// slots is the server's follower-position ledger (slots.go): push
	// streams feed it, compaction consults it. epochInfo reads the
	// server's replication term for stamping outgoing stream batches and
	// ending push streams across a term change.
	slots     *slotTable
	epochInfo func() (int64, string)
}

// groupState is one registered group. group is immutable after creation;
// mu guards the consensus memos.
type groupState struct {
	group *profile.Group

	mu       sync.Mutex
	profiles map[string]*profile.Profile      // consensus name -> aggregated profile
	aggs     map[string]*consensus.Incremental // consensus name -> incremental aggregator
}

// agg returns the group's incremental aggregator for the method, building
// it on first use by joining every member. The aggregator caches the
// member values column-wise, so subsequent profiles — weighted requests
// in particular, which arrive with caller-specific weights and were
// previously full recomputes walking every member profile — reuse the
// cached columns and online sums. Callers hold gs.mu.
func (gs *groupState) agg(name string, method consensus.Method) (*consensus.Incremental, error) {
	if a, ok := gs.aggs[name]; ok {
		return a, nil
	}
	a, err := consensus.NewIncremental(gs.group.Schema(), method)
	if err != nil {
		return nil, err
	}
	for _, m := range gs.group.Members {
		if err := a.Join(m); err != nil {
			return nil, err
		}
	}
	if gs.aggs == nil {
		gs.aggs = make(map[string]*consensus.Incremental)
	}
	gs.aggs[name] = a
	return a, nil
}

// profileFor returns the group's aggregated profile under the named
// consensus method, memoizing unweighted aggregations. Both paths run on
// the incremental aggregator, which is pinned bit-identical to the
// GroupProfile / GroupProfileWeighted full recomputes by the equivalence
// test in internal/consensus.
func (gs *groupState) profileFor(name string, method consensus.Method, weights []float64) (*profile.Profile, error) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if len(weights) > 0 {
		a, err := gs.agg(name, method)
		if err != nil {
			return nil, err
		}
		return a.ProfileWeighted(weights)
	}
	if gp, ok := gs.profiles[name]; ok {
		return gp, nil
	}
	a, err := gs.agg(name, method)
	if err != nil {
		return nil, err
	}
	gp, err := a.Profile()
	if err != nil {
		return nil, err
	}
	gs.profiles[name] = gp
	return gp, nil
}

// packageState is one built package; mu serializes access to the
// customization session (interact.Session is not concurrency-safe).
type packageState struct {
	groupID int
	method  string

	mu      sync.Mutex
	session *interact.Session
}

// newCityState builds (or, with persistence on, recovers) a city's serving
// state. Called by the registry on the city's first touch.
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
		compactBytes: s.compactBytes,
		met:          s.metrics.city(c.Key),
		compactDur:   s.metrics.compaction,
		notify:       newCommitNotify(),
		streams:      &s.metrics.streams,
		slots:        s.slots,
		epochInfo:    s.Epoch,
	}
	cs.persistErr.Store("")
	// A city loaded after promotion is an ordinary read-write city; only
	// an active follower builds the replication mirror. (A fenced node is
	// read-only too, but nothing feeds it frames — no mirror.)
	follower := s.topo.Upstream() != "" && !s.promoted.Load()
	if cs.snapDir == "" {
		if follower {
			ap, mst, err := store.NewApplier(nil, cs.city)
			if err != nil {
				return nil, err
			}
			cs.replica = &replicaMirror{st: mst, ap: ap}
		}
		return cs, nil
	}

	start := time.Now()
	st, err := cs.recoverState()
	if err != nil {
		return nil, err
	}
	wal, err := store.OpenWAL(cs.snapDir, cs.key, s.walSync)
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
	if st != nil {
		cs.nextID = st.NextID
		groups, packages, err := materializeState(cs.city, st)
		if err != nil {
			// The registry forgets failed loads and retries on the next
			// request; leaving the log open would leak one fd per retry.
			wal.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
		cs.groups, cs.packages = groups, packages
	}
	if follower {
		// Keep the recovered state as the replication mirror: the applier
		// resumes validation exactly where recovery stopped, so the
		// follower's resume point survives its own restarts.
		ap, mst, err := store.NewApplier(st, cs.city)
		if err != nil {
			wal.Close()
			return nil, err
		}
		ap.Seed(cs.replay.LastSeq)
		cs.replica = &replicaMirror{st: mst, ap: ap}
	}
	return cs, nil
}

// materializeState builds the serving registries from a persisted state —
// the one route from durable form to live form, shared by restart
// recovery and a follower's snapshot handoff.
func materializeState(city *dataset.City, st *store.ServerState) (map[int]*groupState, map[int]*packageState, error) {
	groups := make(map[int]*groupState, len(st.Groups))
	packages := make(map[int]*packageState, len(st.Packages))
	for _, gr := range st.Groups {
		profiles := gr.Profiles
		if profiles == nil {
			profiles = map[string]*profile.Profile{}
		}
		groups[gr.ID] = &groupState{group: gr.Group, profiles: profiles}
	}
	for _, pr := range st.Packages {
		sess, err := interact.NewSession(city, pr.Package)
		if err != nil {
			return nil, nil, fmt.Errorf("restore package %d: %w", pr.ID, err)
		}
		// The persisted ops are already reflected in the package items;
		// reinstating the log keeps /refine seeing them after a restart.
		sess.SetLog(pr.Ops)
		packages[pr.ID] = &packageState{groupID: pr.GroupID, method: pr.Method, session: sess}
	}
	return groups, packages, nil
}

// recoverState reads snapshot + log. It returns nil state (not an error)
// when the city starts empty: nothing persisted yet, or corruption that
// was quarantined. I/O failures are returned as errors so the registry
// forgets the load and the next request retries.
func (cs *cityState) recoverState() (*store.ServerState, error) {
	base, err := store.ReadSnapshot(cs.snapDir, cs.key, cs.city)
	if err != nil {
		// Corruption must not brick the city — quarantine, start empty,
		// surface on /healthz. A transient I/O failure is different:
		// quarantining an intact snapshot would orphan it, so fail this
		// load instead.
		var corrupt *store.CorruptSnapshotError
		if !errors.As(err, &corrupt) {
			return nil, fmt.Errorf("server: snapshot for %q: %w", cs.key, err)
		}
		cs.quarantineState(err)
		return nil, nil
	}
	st, info, err := store.ReplayWAL(cs.snapDir, cs.key, cs.city, base)
	if err != nil {
		return nil, fmt.Errorf("server: wal replay for %q: %w", cs.key, err)
	}
	cs.replay = *info
	// The store validates structure against the city; consensus names are
	// server vocabulary, so check them here — at load, where the failure
	// lands on /healthz — rather than letting a hand-edited method 500 on
	// the first /refine.
	for _, pr := range st.Packages {
		if _, _, err := methodByName(pr.Method); err != nil {
			cs.quarantineState(fmt.Errorf("package %d: %w", pr.ID, err))
			cs.replay = store.WALReplayInfo{}
			return nil, nil
		}
	}
	if st.NextID == 1 && len(st.Groups) == 0 && len(st.Packages) == 0 && base == nil {
		return nil, nil // true first boot: no snapshot, no log
	}
	return st, nil
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

// register allocates an id for the package under the registry lock.
func (cs *cityState) register(ps *packageState) int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	id := cs.nextID
	cs.nextID++
	cs.packages[id] = ps
	return id
}

// commit runs one mutation under the read side of persistMu and gives it
// a logRec callback to append its WAL record. The callback must be
// invoked while the mutation still holds the entity lock it mutated
// under: append order then matches application order per entity, which
// replay relies on (two ops on one package must land in the log in the
// order their post-op CI states were captured). persistMu orders the
// whole [mutate + append] against compaction (write side), so a snapshot
// can never miss a record that the log rotation then seals away.
//
// The returned sequence is the mutation's commit token — what the
// handler hands back as X-GT-Seq so a front tier can pin the session's
// reads to replicas at or past it. 0 when persistence is off (no
// sequence space exists, and no replicas either).
//
// Append failures never fail the request — the in-memory state is already
// committed — but they are recorded for /healthz, since the in-memory
// registries may now be the only complete copy. The commit
// token for such a write is pinPrimarySeq: the write exists only in this
// process and can never ship to a replica, so the token must name a
// sequence no follower will ever report — a router then routes the
// session's reads to the primary, the one node that can serve the write,
// instead of silently dropping read-your-writes.
func (cs *cityState) commit(mutate func(logRec func(store.WALRecord))) int64 {
	cs.persistMu.RLock()
	logged := false
	var seq int64
	mutate(func(rec store.WALRecord) {
		logged = true
		if cs.wal != nil {
			s, err := cs.wal.Append(rec)
			if err != nil {
				cs.persistErr.Store(err.Error())
				seq = pinPrimarySeq
			} else {
				seq = s
			}
		}
	})
	cs.persistMu.RUnlock()
	if logged {
		// Wake push streams with the durable head — never the
		// pinPrimarySeq sentinel: a failed append's record can never ship,
		// so the notifier must not claim its sequence.
		cs.notify.wake(cs.appliedSeq())
		cs.maybeCompact()
	}
	return seq
}

// pinPrimarySeq is the commit token of a mutation whose WAL append
// failed: unreachable by any replica, it pins the session to the
// primary. (A later, healthy append may reuse the failed record's real
// sequence number, so the real number must NOT be handed out — a
// follower could then report it without holding this write.)
const pinPrimarySeq = int64(math.MaxInt64)

// maybeCompact starts a compaction when the log crosses a threshold. The
// snapshot write is O(city state), so it runs on a background goroutine —
// the mutating request that crossed the threshold answers immediately.
// One compaction runs at a time; contemporaries skip rather than queue
// (the next mutation past the threshold re-triggers).
func (cs *cityState) maybeCompact() {
	if cs.wal == nil {
		return
	}
	st := cs.wal.Stats()
	overRecords := cs.compactEvery > 0 && st.Records >= cs.compactEvery
	overBytes := cs.compactBytes > 0 && st.Bytes >= cs.compactBytes
	if !overRecords && !overBytes {
		return
	}
	// Fan-out awareness: while a live follower's stream position still
	// needs records this compaction would fold into the snapshot, wait —
	// it keeps streaming cheap frames instead of taking a full handoff.
	// The slot table's own deadlines bound the wait (a dead follower is
	// collected, a stuck one is dropped), and the next mutation past the
	// threshold re-triggers.
	if cs.slots != nil && cs.slots.hold(cs.key, cs.wal.LastSeq()) {
		return
	}
	if !cs.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer cs.compacting.Store(false)
		_ = cs.compact()
	}()
}

// compact folds the log into the snapshot. Under the write lock it only
// collects the state (an in-memory clone) and rotates the log — O(1) —
// sealing the current segment as the pending file; the O(city state)
// snapshot encode + write + fsync then runs *outside* persistMu, so
// mutations keep appending to the fresh segment instead of stalling for
// seconds behind a 100k-package snapshot. The snapshot records the
// sequence watermark it covers (WALSeq) and the sealed segment holds
// exactly the records at or below it, so a crash at any point recovers
// exactly: snapshot missing → old snapshot + pending + current replay;
// snapshot landed but pending not yet removed → replay skips the
// already-covered sequences. Failures leave the log intact (recovery
// still works) and are recorded for /healthz rather than failing the
// mutation that triggered the compaction.
func (cs *cityState) compact() error {
	if cs.snapDir == "" {
		return nil
	}
	// A pending segment means an earlier compaction never finished its
	// snapshot; rotating again would need a second pending slot, so
	// retry inline under the lock — rare, and it clears the debt.
	if cs.wal == nil || cs.wal.PendingExists() {
		return cs.compactInline()
	}
	start := time.Now()
	cs.persistMu.Lock()
	st := cs.collectState()
	st.WALSeq = cs.wal.LastSeq()
	if err := cs.wal.Rotate(); err != nil {
		cs.persistMu.Unlock()
		cs.persistErr.Store(err.Error())
		return err
	}
	cs.persistMu.Unlock()

	at, err := store.WriteSnapshot(cs.snapDir, cs.key, st)
	if err != nil {
		cs.persistErr.Store(err.Error())
		return err
	}
	// The sealed segment's records now live in the snapshot.
	if err := store.RemovePendingWAL(cs.snapDir, cs.key); err != nil {
		cs.persistErr.Store(err.Error())
		return err
	}
	cs.compactDur.ObserveSince(start)
	cs.noteCompaction(at)
	return nil
}

// compactInline is the fallback: snapshot under the write lock, then
// drop the pending segment and truncate the log.
func (cs *cityState) compactInline() error {
	start := time.Now()
	cs.persistMu.Lock()
	defer cs.persistMu.Unlock()
	st := cs.collectState()
	if cs.wal != nil {
		st.WALSeq = cs.wal.LastSeq()
	}
	at, err := store.WriteSnapshot(cs.snapDir, cs.key, st)
	if err != nil {
		cs.persistErr.Store(err.Error())
		return err
	}
	if err := store.RemovePendingWAL(cs.snapDir, cs.key); err != nil {
		cs.persistErr.Store(err.Error())
		return err
	}
	if cs.wal != nil {
		if err := cs.wal.Reset(); err != nil {
			cs.persistErr.Store(err.Error())
			return err
		}
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
		gs := groups[id]
		gs.mu.Lock()
		profiles := make(map[string]*profile.Profile, len(gs.profiles))
		for name, p := range gs.profiles {
			profiles[name] = p // profiles are immutable once memoized
		}
		gs.mu.Unlock()
		st.Groups = append(st.Groups, store.GroupRecord{ID: id, Group: gs.group, Profiles: profiles})
	}
	for _, id := range pkgIDs {
		ps := pkgs[id]
		ps.mu.Lock()
		tp := clonePackage(ps.session.Package())
		ops := append([]interact.Op(nil), ps.session.Log()...)
		ps.mu.Unlock()
		st.Packages = append(st.Packages, store.PackageRecord{
			ID: id, GroupID: ps.groupID, Method: ps.method, Package: tp, Ops: ops,
		})
	}
	return st
}

// appliedSeq is the city's current WAL position: the last committed
// sequence on a primary, the last applied sequence on a follower (frames
// are re-appended verbatim AFTER materialization, so the local log head
// never runs ahead of the serving state — the invariant a router's
// freshness pinning relies on). 0 when the city runs without persistence
// and without a replication mirror — no sequence space exists then.
//
// The mirror branch (persistence-less follower) must go quiet on a
// latched fault: the mirror's cursor then includes a record the serving
// registries never received, and reporting it would route a pinned read
// here for state this node cannot serve. Under-reporting is always safe.
func (cs *cityState) appliedSeq() int64 {
	if cs.wal != nil {
		return cs.wal.LastSeq()
	}
	if m := cs.replica; m != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.ap != nil && m.fault == nil {
			return m.ap.LastSeq()
		}
	}
	return 0
}

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
	if cs.wal != nil {
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
	}
	return h
}
