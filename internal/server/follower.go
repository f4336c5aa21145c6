package server

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"grouptravel/internal/replicate"
	"grouptravel/internal/store"
)

// This file is the follower half of log shipping. A server constructed
// with Options.Follow tails the primary's per-city logs (internal/
// replicate) and keeps a warm, read-only copy of every city's serving
// state: each shipped frame is decoded (store.DecodeRecord), applied to
// the live group/package registries by applyRecord — the function
// restart recovery replays the log through — and appended verbatim to the
// follower's own write-ahead log, so a follower restart recovers its
// position from its own disk and resumes where it left off. The serving
// state is the only copy of the city the follower holds. Mutating routes
// answer 403 with a pointer at the primary until Promote flips the
// process into a full read-write server.

// errNotReplicating answers replication calls for a city that does not
// replicate: a primary's, or a follower's after promotion.
func (cs *cityState) errNotReplicating() error {
	return fmt.Errorf("server: %q is not replicating", cs.key)
}

// replicaResume is the city's resume point: the last applied sequence.
func (cs *cityState) replicaResume() (int64, error) {
	cs.replMu.Lock()
	defer cs.replMu.Unlock()
	if cs.replStopped {
		return 0, cs.errNotReplicating()
	}
	return cs.replSeq, nil
}

// applyFrames applies shipped records in order through applyRecord, then
// persists them to the local log — all under the read side of persistMu,
// exactly like a primary mutation commit, so a follower compaction can
// never snapshot a state whose record it then truncates. Frames at or
// below the current position are skipped (at-least-once delivery). An
// error means the stream and the local state disagree; applyRecord left
// the state at the record before it, and the city stops advancing there
// rather than guessing.
//
// Persistence is batched: each frame applies immediately, but the
// verbatim re-append to the follower's own log happens once for the whole
// batch through WAL.AppendFrames — one write, one group-commit fsync —
// instead of one write and one fsync per frame. The
// read lock spans the batch so the [apply + append] pair stays atomic
// against compaction, and the append still runs strictly after the
// apply, preserving the invariant that the local log head never leads the
// serving state.
func (cs *cityState) applyFrames(frames []store.WALFrame) (int64, error) {
	cs.replMu.Lock()
	defer cs.replMu.Unlock()
	if cs.replStopped {
		return 0, cs.errNotReplicating()
	}
	logged := false
	var applyErr error
	var toAppend []store.WALFrame
	cs.persistMu.RLock()
	for _, fr := range frames {
		if fr.Seq <= cs.replSeq {
			continue
		}
		rec, err := store.DecodeRecord(fr.Payload, cs.city)
		if err == nil {
			err = cs.applyRecord(rec)
		}
		if err != nil {
			applyErr = fmt.Errorf("seq %d: %w", fr.Seq, err)
			break
		}
		cs.replSeq = fr.Seq
		cs.met.framesApplied.Inc()
		toAppend = append(toAppend, fr)
	}
	if len(toAppend) > 0 {
		// A follower applies first: on a persistence failure memory runs
		// ahead of the log, the error lands on /healthz and appliedSeq
		// (the log head) stays put. A failed fsync latches the log until
		// a restart or a snapshot handoff (Reset) clears it. A rejected
		// frame mid-batch still persists the frames before it.
		if werr := cs.wal.AppendFrames(toAppend); werr != nil {
			cs.persistErr.Store(werr.Error())
		} else {
			logged = true
		}
	}
	cs.persistMu.RUnlock()
	if len(toAppend) > 0 {
		// One wake per batch: cascading replicas tailing this follower
		// resume with the whole batch in one read.
		cs.notify.wake(cs.appliedSeq())
	}
	if logged {
		cs.maybeCompact()
	}
	return cs.replSeq, applyErr
}

// applySnapshot installs a compaction handoff: full validation, then the
// on-disk state (raw snapshot + emptied log) and the in-memory registries
// swap together. Claiming the compaction slot and the write side of
// persistMu excludes a follower compaction from overwriting the handoff
// with the state it replaces, and from trimming the log at a mark the
// reset invalidated.
func (cs *cityState) applySnapshot(raw []byte) (int64, error) {
	cs.replMu.Lock()
	defer cs.replMu.Unlock()
	if cs.replStopped {
		return 0, cs.errNotReplicating()
	}
	st, err := store.LoadServerState(bytes.NewReader(raw), cs.city)
	if err != nil {
		return 0, fmt.Errorf("server: handoff snapshot: %w", err)
	}
	if st.WALSeq <= cs.replSeq {
		return cs.replSeq, nil // stale handoff; frames will cover the rest
	}
	groups, packages, err := materializeState(cs.city, st)
	if err != nil {
		return 0, fmt.Errorf("server: handoff: %w", err)
	}

	for !cs.compacting.CompareAndSwap(false, true) {
		time.Sleep(time.Millisecond)
	}
	defer cs.compacting.Store(false)
	cs.persistMu.Lock()
	if err := store.WriteSnapshotRaw(cs.snapDir, cs.key, raw); err != nil {
		cs.persistErr.Store(err.Error())
	} else if err := cs.wal.Reset(); err != nil {
		cs.persistErr.Store(err.Error())
	} else {
		cs.wal.Seed(0, st.WALSeq)
		cs.snapTime.Store(time.Now().UnixNano())
		cs.persistErr.Store("")
	}
	cs.mu.Lock()
	cs.groups, cs.packages, cs.nextID = groups, packages, st.NextID
	cs.mu.Unlock()
	cs.persistMu.Unlock()
	cs.replSeq = st.WALSeq
	cs.notify.wake(st.WALSeq)
	return st.WALSeq, nil
}

// sealPromoted flips one city out of replica mode: stop applying shipped
// records — local mutations commit through the WAL appender from here on.
// The replicated tail needs no fsync here: every batch fsynced before
// applyFrames returned.
func (cs *cityState) sealPromoted() {
	cs.replMu.Lock()
	cs.replStopped = true
	cs.replMu.Unlock()
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
	case s.upstream == "":
		return "primary"
	case s.promoted.Load():
		return "promoted"
	default:
		return "follower"
	}
}

// isReadOnly: a follower that has not been promoted rejects mutations,
// and so does any node fenced by a higher replication epoch.
func (s *Server) isReadOnly() bool {
	return s.fenced.Load() || (s.upstream != "" && !s.promoted.Load())
}

// Follower exposes the replication tailer (nil on primaries) — tests and
// embedders drive Sync/CatchUp and read lag through it.
func (s *Server) Follower() *replicate.Follower { return s.follower }

// Close stops background replication tailers, waiting out in-flight
// applies, and then closes every loaded city's log, fsyncing what it
// holds. A city that was never loaded has no open log and is not loaded
// now. Close is for shutdown: every later append fails ("wal closed"),
// as on a broken log. Idempotent.
func (s *Server) Close() {
	if s.follower != nil {
		s.follower.Stop()
	}
	for _, key := range s.reg.Keys() {
		if c, ok := s.reg.Resident(key); ok {
			if err := c.State.wal.Close(); err != nil {
				c.State.persistErr.Store(err.Error())
			}
		}
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
	if s.upstream == "" {
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
			// Never force-load: an unloaded city has no open log to
			// seal, and loads read-write after the flip.
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
			primary := s.upstream
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
	if s.upstream == "" {
		writeErr(w, http.StatusConflict, "already a primary")
		return
	}
	if err := s.Promote(); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"role": s.Role(), "formerPrimary": s.upstream})
}
