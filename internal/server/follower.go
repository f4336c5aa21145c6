package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"

	"grouptravel/internal/interact"
	"grouptravel/internal/profile"
	"grouptravel/internal/replicate"
	"grouptravel/internal/store"
)

// This file is the follower half of log shipping. A server constructed
// with Options.Follow tails the primary's per-city logs (internal/
// replicate) and keeps a warm, read-only copy of every city's serving
// state: each shipped frame is validated and applied through the same
// store.Applier restart replay uses, materialized into the live
// group/package registries, and appended verbatim to the follower's own
// write-ahead log — so a follower restart recovers its position from its
// own disk and resumes where it left off. Mutating routes answer 403
// with a pointer at the primary until Promote flips the process into a
// full read-write server.

// replicaMirror is a follower city's apply state: the persistent-form
// mirror the applier validates against, applied in lockstep with the
// serving registries. mu serializes replication applies (syncs for one
// city are single-flighted by sequence anyway; the lock makes overlap
// harmless). st/ap become nil at promotion: the mirror is dead weight
// once local mutations — which bypass it — are allowed. fault latches a
// materialization failure that left the mirror ahead of the serving
// state: retrying would skip the frame the mirror already consumed, so
// the city stops replicating (and keeps reporting the fault) instead of
// silently losing a record.
type replicaMirror struct {
	mu    sync.Mutex
	st    *store.ServerState
	ap    *store.Applier
	fault error
}

// replicaResume is the city's resume point: the last applied sequence.
func (cs *cityState) replicaResume() (int64, error) {
	m := cs.replica
	if m == nil {
		return 0, fmt.Errorf("server: %q is not replicating", cs.key)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ap == nil {
		return 0, fmt.Errorf("server: %q was promoted; replication stopped", cs.key)
	}
	return m.ap.LastSeq(), nil
}

// applyFrames applies shipped records in order: validate against the
// mirror, materialize into the serving registries, persist to the local
// log — all under the read side of persistMu, exactly like a primary
// mutation commit, so a follower compaction can never snapshot a state
// whose record it then truncates. Frames at or below the current
// position are skipped (at-least-once delivery). An error means the
// stream and the local state disagree; the city stops advancing rather
// than guessing.
//
// Persistence is batched: each applied frame materializes immediately,
// but the verbatim re-append to the follower's own log happens once for
// the whole batch through WAL.AppendFrames — one write, one group-commit
// fsync — instead of one write and (under WALSyncAlways) one fsync per
// frame. The read lock spans the batch so the [materialize + append]
// pair stays atomic against compaction, and the append still runs
// strictly after materialization, preserving the invariant that the
// local log head never leads the serving state.
func (cs *cityState) applyFrames(frames []store.WALFrame) (int64, error) {
	m := cs.replica
	if m == nil {
		return 0, fmt.Errorf("server: %q is not replicating", cs.key)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ap == nil {
		return 0, fmt.Errorf("server: %q was promoted; replication stopped", cs.key)
	}
	if m.fault != nil {
		return m.ap.LastSeq(), m.fault
	}
	logged := false
	var applyErr error
	var toAppend []store.WALFrame
	cs.persistMu.RLock()
	for _, fr := range frames {
		if fr.Seq <= m.ap.LastSeq() {
			continue
		}
		res, err := m.ap.ApplyPayload(fr.Payload)
		if err == nil && !res.Skipped {
			if merr := cs.materializeRecord(res); merr != nil {
				// The mirror already consumed this sequence; a retry
				// would skip it and silently lose the record. Latch.
				err = merr
				m.fault = fmt.Errorf("server: %q replication fault at seq %d: %w", cs.key, fr.Seq, merr)
			} else {
				cs.met.framesApplied.Inc()
				toAppend = append(toAppend, fr)
			}
		}
		if err != nil {
			applyErr = fmt.Errorf("seq %d: %w", fr.Seq, err)
			break
		}
	}
	if cs.wal != nil && len(toAppend) > 0 {
		// Persistence failures never stall replication — the in-memory
		// copy is committed; they surface on /healthz like any primary
		// append failure. A fault mid-batch still
		// persists the frames applied before it.
		if werr := cs.wal.AppendFrames(toAppend); werr != nil {
			cs.persistErr.Store(werr.Error())
		} else {
			logged = true
		}
	}
	cs.persistMu.RUnlock()
	m.ap.Finish()
	cs.mu.Lock()
	cs.nextID = m.st.NextID
	cs.mu.Unlock()
	last := m.ap.LastSeq()
	if len(toAppend) > 0 {
		// One wake per batch: cascading replicas tailing this follower
		// resume with the whole batch in one read.
		cs.notify.wake(cs.appliedSeq())
	}
	if logged {
		cs.maybeCompact()
	}
	return last, applyErr
}

// materializeRecord updates the serving registries for one applied
// record — the incremental form of the full materializeState a restart
// runs, touching only the entity the record touched.
func (cs *cityState) materializeRecord(res store.Applied) error {
	m := cs.replica
	switch res.Kind {
	case store.RecordGroupCreate:
		gr := m.ap.Group(res.ID)
		if gr == nil {
			return fmt.Errorf("applied group %d missing from mirror", res.ID)
		}
		profiles := gr.Profiles
		if profiles == nil {
			profiles = map[string]*profile.Profile{}
		}
		cs.mu.Lock()
		cs.groups[res.ID] = &groupState{group: gr.Group, profiles: profiles}
		cs.mu.Unlock()

	case store.RecordPackageBuild, store.RecordRefine:
		pr := m.ap.Package(res.ID)
		if pr == nil {
			return fmt.Errorf("applied package %d missing from mirror", res.ID)
		}
		sess, err := interact.NewSession(cs.city, pr.Package) // deep-copies CIs
		if err != nil {
			return fmt.Errorf("materialize package %d: %w", res.ID, err)
		}
		sess.SetLog(pr.Ops)
		cs.mu.Lock()
		cs.packages[res.ID] = &packageState{groupID: pr.GroupID, method: pr.Method, session: sess}
		cs.mu.Unlock()

	case store.RecordCustomOp:
		pr := m.ap.Package(res.PackageID)
		cs.mu.RLock()
		ps := cs.packages[res.PackageID]
		cs.mu.RUnlock()
		if pr == nil || ps == nil || len(pr.Ops) == 0 {
			return fmt.Errorf("customOp package %d not materialized", res.PackageID)
		}
		// The applier already validated the op and installed the post-op
		// CI in the mirror; graft a clone of exactly that CI into the
		// serving session, so this path and restart replay produce
		// identical sessions.
		op := pr.Ops[len(pr.Ops)-1]
		after := pr.Package.CIs[op.CIIndex].Clone()
		ps.mu.Lock()
		tp := ps.session.Package()
		switch {
		case op.CIIndex == len(tp.CIs):
			tp.CIs = append(tp.CIs, after) // GENERATE
		case op.CIIndex < len(tp.CIs):
			tp.CIs[op.CIIndex] = after
		default:
			ps.mu.Unlock()
			return fmt.Errorf("customOp CI %d beyond package %d", op.CIIndex, res.PackageID)
		}
		ps.session.SetLog(pr.Ops)
		ps.mu.Unlock()

	default:
		return fmt.Errorf("unknown record kind %q", res.Kind)
	}
	return nil
}

// applySnapshot installs a compaction handoff: full validation, then the
// on-disk state (raw snapshot + emptied log) and the in-memory state
// (registries + mirror) swap together. Claiming the compaction slot and
// the write side of persistMu excludes a follower compaction from
// overwriting the handoff with the state it replaces.
func (cs *cityState) applySnapshot(raw []byte) (int64, error) {
	m := cs.replica
	if m == nil {
		return 0, fmt.Errorf("server: %q is not replicating", cs.key)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ap == nil {
		return 0, fmt.Errorf("server: %q was promoted; replication stopped", cs.key)
	}
	// A latched fault does not block a handoff: the snapshot replaces the
	// state wholesale, so installing it is the one way the city can heal.
	st, err := store.LoadServerState(bytes.NewReader(raw), cs.city)
	if err != nil {
		return 0, fmt.Errorf("server: handoff snapshot: %w", err)
	}
	if st.WALSeq <= m.ap.LastSeq() {
		return m.ap.LastSeq(), nil // stale handoff; frames will cover the rest
	}
	for _, pr := range st.Packages {
		if _, _, err := methodByName(pr.Method); err != nil {
			return 0, fmt.Errorf("server: handoff package %d: %w", pr.ID, err)
		}
	}
	groups, packages, err := materializeState(cs.city, st)
	if err != nil {
		return 0, fmt.Errorf("server: handoff: %w", err)
	}
	ap, mst, err := store.NewApplier(st, cs.city)
	if err != nil {
		return 0, err
	}
	ap.Seed(st.WALSeq)

	for !cs.compacting.CompareAndSwap(false, true) {
		time.Sleep(time.Millisecond)
	}
	defer cs.compacting.Store(false)
	cs.persistMu.Lock()
	if cs.wal != nil {
		if err := store.WriteSnapshotRaw(cs.snapDir, cs.key, raw); err != nil {
			cs.persistErr.Store(err.Error())
		} else if err := store.RemovePendingWAL(cs.snapDir, cs.key); err != nil {
			cs.persistErr.Store(err.Error())
		} else if err := cs.wal.Reset(); err != nil {
			cs.persistErr.Store(err.Error())
		} else {
			cs.wal.Seed(0, st.WALSeq)
			cs.snapTime.Store(time.Now().UnixNano())
			cs.persistErr.Store("")
		}
	}
	cs.mu.Lock()
	cs.groups, cs.packages, cs.nextID = groups, packages, st.NextID
	cs.mu.Unlock()
	cs.persistMu.Unlock()
	m.st, m.ap = mst, ap
	m.fault = nil // the installed snapshot supersedes whatever was lost
	cs.notify.wake(st.WALSeq)
	return st.WALSeq, nil
}

// sealPromoted flips one city out of replica mode: fsync the log tail and
// drop the mirror — local mutations commit through the WAL appender and
// never touch it again.
func (cs *cityState) sealPromoted() {
	if m := cs.replica; m != nil {
		m.mu.Lock()
		m.st, m.ap = nil, nil
		m.mu.Unlock()
	}
	if cs.wal != nil {
		_ = cs.wal.Sync()
	}
	// A generation tick, not a position change: push streams re-check and
	// notice the role flip on their next read.
	cs.notify.wake(cs.appliedSeq())
}

// followerTarget adapts the Server to replicate.Target, resolving the
// city through the registry on each call — the first call for a city
// loads it (recovering its own on-disk position), later calls find it
// resident.
type followerTarget struct{ s *Server }

func (t followerTarget) withCity(city string, fn func(cs *cityState) (int64, error)) (int64, error) {
	c, err := t.s.reg.Get(city)
	if err != nil {
		return 0, err
	}
	return fn(c.State)
}

func (t followerTarget) Resume(city string) (int64, error) {
	return t.withCity(city, (*cityState).replicaResume)
}

func (t followerTarget) ApplySnapshot(city string, raw []byte) (int64, error) {
	return t.withCity(city, func(cs *cityState) (int64, error) { return cs.applySnapshot(raw) })
}

func (t followerTarget) ApplyFrames(city string, frames []store.WALFrame) (int64, error) {
	return t.withCity(city, func(cs *cityState) (int64, error) { return cs.applyFrames(frames) })
}

// --- server surface ---

// Role reports the server's replication role. Fenced wins over every
// other state: whatever this node used to be, it observed a term owned
// by someone else and is read-only until an operator re-points it.
func (s *Server) Role() string {
	switch {
	case s.fenced.Load():
		return "fenced"
	case s.topo.Upstream() == "":
		return "primary"
	case s.promoted.Load():
		return "promoted"
	default:
		return "follower"
	}
}

// Topology exposes the node-metadata source (health reports, embedders).
func (s *Server) Topology() Topology { return s.topo }

// isReadOnly: a follower that has not been promoted rejects mutations,
// and so does any node fenced by a higher replication epoch.
func (s *Server) isReadOnly() bool {
	return s.fenced.Load() || (s.topo.Upstream() != "" && !s.promoted.Load())
}

// Follower exposes the replication tailer (nil on primaries) — tests and
// embedders drive Sync/CatchUp and read lag through it.
func (s *Server) Follower() *replicate.Follower { return s.follower }

// Close stops background replication tailers and waits for in-flight
// syncs. Primaries have nothing to stop. City logs stay open — the
// process may keep serving.
func (s *Server) Close() {
	if s.follower != nil {
		s.follower.Stop()
	}
}

// Promote flips a follower into a full read-write server: stop the
// tailers (waiting out in-flight applies), seal every resident city's
// log, and only then open the mutation routes — writes must never race
// an in-flight replication apply for the same sequence numbers. The
// follower's own WAL simply continues: the promoted node's first local
// mutation appends at the sequence after the last replicated record,
// and a restart recovers through the ordinary snapshot+log path.
// Idempotent; concurrent callers all return after the flip completed.
func (s *Server) Promote() error {
	if s.topo.Upstream() == "" {
		return fmt.Errorf("server: not a follower")
	}
	s.promoteOnce.Do(func() {
		if s.follower != nil {
			s.follower.Stop()
		}
		// Mint the new term after the tailers stopped (no apply is
		// mid-flight) and before the seal: each city's seal wakes its
		// notifier, and any push stream this node is serving observes the
		// term change on that wake and ends — so no inbound consumer
		// outlives the promotion, and the bumped term rides the very next
		// exchange to fence the deposed primary.
		s.bumpEpoch()
		for _, key := range s.reg.Keys() {
			// Never force-load: an unloaded city has no open log and no
			// mirror to seal, and loads read-write after the flip.
			if c, ok := s.reg.Resident(key); ok {
				c.State.sealPromoted()
			}
		}
		s.promoted.Store(true)
	})
	return nil
}

// replicaDenied is the 403 body a follower answers mutations with.
type replicaDenied struct {
	Error   string `json:"error"`
	Primary string `json:"primary"`
}

// writable gates a mutating route on the server's role. The 403 names
// the best-known primary: the epoch owner when a term has been observed
// (a fenced node's upstream is stale by definition — the owner is who
// deposed it), the configured upstream otherwise.
func (s *Server) writable(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.isReadOnly() {
			primary := s.topo.Upstream()
			if _, owner := s.Epoch(); owner != "" {
				primary = owner
			}
			w.Header().Set(HeaderPrimary, primary)
			writeJSON(w, http.StatusForbidden, replicaDenied{
				Error:   fmt.Sprintf("read-only replica; send mutations to the primary at %s", primary),
				Primary: primary,
			})
			return
		}
		h(w, r)
	}
}

// handlePromote is POST /promote.
func (s *Server) handlePromote(w http.ResponseWriter, _ *http.Request) {
	if s.topo.Upstream() == "" {
		writeErr(w, http.StatusConflict, "already a primary")
		return
	}
	if err := s.Promote(); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"role": s.Role(), "formerPrimary": s.topo.Upstream()})
}
