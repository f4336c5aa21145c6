package server

import (
	"net/http"
	"strconv"

	"grouptravel/internal/registry"
	"grouptravel/internal/replicate"
	"grouptravel/internal/store"
)

// The replication epoch is what makes promotion safe: a monotonic term,
// persisted beside every city's WAL, bumped exactly once per promotion
// and stamped into every GTREPv1 exchange (X-GT-Epoch / X-GT-Epoch-
// Primary, on /wal responses, health polls, and relayed mutations). A
// writable node that observes a term higher than its own — from any of
// those surfaces — knows the fleet promoted someone else while it wasn't
// looking: it latches read-only ("fenced") and answers every mutation
// with 403 plus the new primary's URL, so a deposed primary can never
// accept a write the fleet won't see. Fencing is durable: the adopted
// term is persisted immediately, and a fenced node that restarts comes
// back fenced.

// Epoch returns the node's current replication term and its owner's
// advertised URL (0, "" before any promotion anywhere).
func (s *Server) Epoch() (int64, string) {
	owner, _ := s.epochOwner.Load().(string)
	return s.epochVal.Load(), owner
}

// observeEpoch adopts a peer-reported term. Terms at or below the
// current one are ignored (the fast path — one atomic load). A strictly
// higher term is persisted for every city, then installed; if this node
// was writable and is not the term's owner, it fences. All commit
// notifiers get a generation tick so open push streams re-check the term
// and end, forcing their consumers through a fresh (fenced) handshake.
func (s *Server) observeEpoch(term int64, owner string) {
	if term <= 0 || term <= s.epochVal.Load() {
		return
	}
	s.epochMu.Lock()
	if term <= s.epochVal.Load() {
		s.epochMu.Unlock()
		return
	}
	s.persistEpochLocked(term, owner)
	wasWritable := !s.isReadOnly()
	s.epochOwner.Store(owner)
	s.epochVal.Store(term)
	if wasWritable && owner != s.advertise {
		s.fenced.Store(true)
	}
	s.epochMu.Unlock()
	s.tickNotifiers()
}

// bumpEpoch mints the next term with this node as owner — the promote
// path. The new term is persisted before it is visible, so a crash
// between promotion and the first replicated write still leaves a
// durable record of who owns the term. Promotion supersedes any fence.
func (s *Server) bumpEpoch() (int64, string) {
	s.epochMu.Lock()
	term := s.epochVal.Load() + 1
	owner := s.advertise
	s.persistEpochLocked(term, owner)
	s.epochOwner.Store(owner)
	s.epochVal.Store(term)
	s.fenced.Store(false)
	s.epochMu.Unlock()
	s.tickNotifiers()
	return term, owner
}

// persistEpochLocked writes the term beside every city's WAL. Callers
// hold epochMu. Persistence failures surface like any other (the node
// still fences in memory — an unfenced split-brain is strictly worse
// than a fence that forgets across restart).
func (s *Server) persistEpochLocked(term int64, owner string) {
	for _, key := range s.reg.Keys() {
		if err := store.WriteEpoch(s.snapshotDir, key, store.Epoch{Epoch: term, Primary: owner}); err != nil {
			if c, ok := s.reg.Resident(key); ok {
				c.State.persistErr.Store(err.Error())
			}
		}
	}
}

// loadEpochs recovers the node's term at boot: the highest persisted
// term across its cities wins (they are written together; a crash can
// leave a short prefix behind by one term). A node that boots believing
// itself primary but finds a term owned by someone else comes back
// fenced; a node that finds its own advertise as the owner was promoted
// before the restart and comes back promoted.
func (s *Server) loadEpochs(keys []string) error {
	var term int64
	var owner string
	for _, key := range keys {
		e, err := store.ReadEpoch(s.snapshotDir, key)
		if err != nil {
			return err
		}
		if e.Epoch > term {
			term, owner = e.Epoch, e.Primary
		}
	}
	if term == 0 {
		return nil
	}
	s.epochOwner.Store(owner)
	s.epochVal.Store(term)
	switch {
	case owner != "" && owner == s.advertise:
		// This node owns the term: it was promoted before the restart.
		// Replication must not resume against the (deposed) upstream.
		s.promoted.Store(true)
	case s.upstream == "" && owner != s.advertise:
		// Booted as a primary, but the fleet's term belongs to someone
		// else: the fence survives the restart.
		s.fenced.Store(true)
	}
	return nil
}

// tickNotifiers wakes every resident city's commit broadcast as a
// generation tick (no position change): push streams re-check the term
// and end. A city not loaded yet serves no streams.
func (s *Server) tickNotifiers() {
	s.reg.Range(func(c *registry.City[*cityState]) { c.State.notify.wake(0) })
}

// noteEpochHeader is the outermost HTTP wrapper: it reads the peer's
// term off every request (health polls, mutation relays, /wal pulls all
// carry it) before the handler runs — so a relayed write that proves
// this node deposed is fenced by the very request that proves it — and
// stamps the node's own term on every response, which is how routers
// and followers learn of a promotion without a dedicated exchange.
func (s *Server) noteEpochHeader(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get(replicate.HeaderEpoch); v != "" {
			if term, err := strconv.ParseInt(v, 10, 64); err == nil {
				s.observeEpoch(term, r.Header.Get(replicate.HeaderEpochPrimary))
			}
		}
		if term, owner := s.Epoch(); term > 0 {
			h := w.Header()
			h.Set(replicate.HeaderEpoch, strconv.FormatInt(term, 10))
			if owner != "" {
				h.Set(replicate.HeaderEpochPrimary, owner)
			}
		}
		next.ServeHTTP(w, r)
	})
}
