package server

import "sync"

// commitNotify is a per-city versioned broadcast: writers announce "the
// applied sequence reached seq", waiters block until the announced head
// passes the sequence they have already seen. It is the wakeup primitive
// behind the /wal push stream — and deliberately generic
// (nothing replication-specific in it) so the same notifier can later
// drive SSE collaboration streams for a city's groups.
//
// The broadcast is a swapped channel: every wake closes the current
// channel (releasing all waiters at once) and installs a fresh one.
// Waiters re-check the head after every release, so a wake whose seq
// does not advance the head (promotion sealing, a failed commit) still
// forces a re-check without lying about the position.
type commitNotify struct {
	mu   sync.Mutex
	head int64         // highest announced applied sequence
	ch   chan struct{} // closed on every wake; never nil
}

func newCommitNotify() *commitNotify {
	return &commitNotify{ch: make(chan struct{})}
}

// wake announces that the city's applied sequence reached seq (0 or a
// regressing seq still releases waiters — a generation tick — but never
// moves the head backwards).
func (n *commitNotify) wake(seq int64) {
	n.mu.Lock()
	if seq > n.head {
		n.head = seq
	}
	close(n.ch)
	n.ch = make(chan struct{})
	n.mu.Unlock()
}

// await returns the announced head and the channel the next wake will
// close. The caller pattern:
//
//	head, ch := n.await()
//	if head > cursor { ...collect and serve... }
//	select { case <-ch: recheck; case <-timeout: ... }
//
// The head and channel are read under one lock acquisition, so a wake
// cannot slip between "head is stale" and "start waiting".
func (n *commitNotify) await() (int64, <-chan struct{}) {
	n.mu.Lock()
	head, ch := n.head, n.ch
	n.mu.Unlock()
	return head, ch
}
