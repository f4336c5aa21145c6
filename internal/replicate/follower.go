package replicate

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"grouptravel/internal/store"
)

// Target is what a Follower replicates into — implemented by the server
// layer over its per-city state. All methods must be safe for concurrent
// use; the Follower may sync different cities in parallel and a manual
// CatchUp may overlap a background stream for the same city (sequence
// numbers make overlapping applies idempotent).
type Target interface {
	// Resume returns the city's last durably applied sequence — where the
	// next fetch resumes. 0 means nothing applied yet.
	Resume(city string) (int64, error)
	// ApplySnapshot validates and installs a compaction handoff, replacing
	// the city's state wholesale, and returns the snapshot's watermark.
	// A handoff at or below the current position is a no-op, not an error.
	ApplySnapshot(city string, raw []byte) (int64, error)
	// ApplyFrames applies shipped records in order and returns the new
	// last applied sequence. Frames at or below the current position must
	// be skipped (at-least-once delivery). An error means the stream and
	// the local state disagree — the caller surfaces it and stops
	// advancing rather than guessing.
	ApplyFrames(city string, frames []store.WALFrame) (int64, error)
}

// Lag is one city's replication position, as reported on the follower's
// /healthz.
type Lag struct {
	// Records is how far behind the primary this city was at the last
	// completed sync, in sequence distance.
	Records int64 `json:"records"`
	// AppliedSeq is the city's last applied sequence; PrimarySeq the
	// primary's head at the last sync.
	AppliedSeq int64 `json:"appliedSeq"`
	PrimarySeq int64 `json:"primarySeq"`
	// PrimaryWALBytes is the primary's bytes-since-compaction gauge — the
	// load/backpressure signal a front tier can route on.
	PrimaryWALBytes int64 `json:"primaryWalBytes"`
	// SnapshotHandoffs counts compaction handoffs taken; WireRetries
	// counts torn/corrupt responses that forced a re-fetch.
	SnapshotHandoffs int64 `json:"snapshotHandoffs"`
	WireRetries      int64 `json:"wireRetries"`
	// Syncs counts completed sync cycles; Err is the last sync's failure
	// (empty once healthy again).
	Syncs int64  `json:"syncs"`
	Err   string `json:"error,omitempty"`

	// resumed: AppliedSeq is established (at least one successful sync),
	// so the next cycle can resume from it without consulting the target.
	resumed bool
}

// Follower tails a primary's per-city logs and applies them to a Target.
// One goroutine per city holds a push stream open; Sync and CatchUp run
// one-shot fetches synchronously (tests, promotion barriers). Both paths
// apply through the same step (apply).
type Follower struct {
	client   *Client
	target   Target
	cities   []string
	interval time.Duration

	// onEpoch, when set, is invoked with every nonzero replication term
	// the primary reports (on stream open, every applied batch, and every
	// fetch), letting the server layer persist and adopt it.
	onEpoch func(term int64, owner string)

	mu  sync.Mutex
	lag map[string]*Lag

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      sync.WaitGroup
}

// DefaultPollInterval paces a tailer's reconnects when the caller does
// not choose: the base of its failure backoff, and the wait before
// reopening a stream that ended within a second.
const DefaultPollInterval = 250 * time.Millisecond

// NewFollower builds a follower over the given cities. interval <= 0
// selects DefaultPollInterval. Nothing runs until Start.
func NewFollower(primary string, cities []string, target Target, interval time.Duration) *Follower {
	if interval <= 0 {
		interval = DefaultPollInterval
	}
	f := &Follower{
		client:   &Client{Base: primary},
		target:   target,
		cities:   append([]string(nil), cities...),
		interval: interval,
		lag:      make(map[string]*Lag, len(cities)),
		stop:     make(chan struct{}),
	}
	for _, c := range f.cities {
		f.lag[c] = &Lag{}
	}
	return f
}

// Primary returns the primary's base URL.
func (f *Follower) Primary() string { return f.client.Base }

// SetID names this follower on the primary's replication-slot table (the
// ?fid= stream handshake). Call before Start.
func (f *Follower) SetID(id string) { f.client.ID = id }

// SetEpochInfo supplies the follower's highest known replication term for
// stamping onto outgoing wal requests. Call before Start.
func (f *Follower) SetEpochInfo(fn func() (int64, string)) { f.client.EpochInfo = fn }

// SetOnEpoch registers the callback invoked with every nonzero term the
// primary reports. Call before Start.
func (f *Follower) SetOnEpoch(fn func(term int64, owner string)) { f.onEpoch = fn }

// observeEpoch forwards a batch's term to the registered callback.
func (f *Follower) observeEpoch(b *Batch) {
	if f.onEpoch != nil && b.Epoch > 0 {
		f.onEpoch(b.Epoch, b.EpochPrimary)
	}
}

// Start launches one streaming tailer per city. Idempotent.
func (f *Follower) Start() {
	f.startOnce.Do(func() {
		for _, city := range f.cities {
			f.done.Add(1)
			go f.tail(city)
		}
	})
}

// Stop halts the tailers and waits for in-flight syncs to finish, so the
// caller (promotion) knows no apply is mid-flight when it returns.
// Idempotent; a never-started follower stops trivially.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.done.Wait()
}

// tail is one city's push-stream loop: it holds a stream open and
// reconnects immediately when the server ends one cleanly (stream life
// cap, compaction handoff); only failures back off, exponentially
// (capped), instead of hammering a struggling primary.
func (f *Follower) tail(city string) {
	defer f.done.Done()
	failures := 0
	immediate := true
	for {
		if immediate && failures == 0 {
			// A healthy stream reconnects without sleeping: the server just
			// rotated the stream, and waiting would only add lag.
			select {
			case <-f.stop:
				return
			default:
			}
		} else {
			wait := f.interval
			if failures > 0 {
				wait = retryBackoff(failures, f.interval)
			}
			select {
			case <-f.stop:
				return
			case <-time.After(wait):
			}
		}
		start := time.Now()
		err := f.streamCity(city)
		// Only a stream that actually lived a while earns the instant
		// reconnect. A clean end within a second means the other side is
		// answering ?stream=1 as a one-shot (an old primary, a proxy that
		// cannot flush) — reconnecting instantly against that is a hot
		// loop at thousands of requests a second, so pace on the interval.
		immediate = time.Since(start) >= time.Second
		if err != nil {
			failures++
		} else {
			failures = 0
		}
	}
}

// streamCity holds one push stream open for a city, applying batches as
// commits arrive, until the server ends it or something fails. A clean
// end returns nil and the tailer reconnects from the new resume point —
// including the compaction-handoff case, where the fresh response opens
// with a snapshot section.
func (f *Follower) streamCity(city string) error {
	applied, err := f.resumeSeq(city)
	if err != nil {
		f.note(city, err)
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-f.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	err = f.client.Stream(ctx, city, applied, func(b *Batch) error {
		var err error
		applied, err = f.apply(city, applied, b)
		return err
	})
	// A stop-triggered cancel is a shutdown, not a failure: report clean
	// so the loop exits via the stop check instead of backing off first.
	select {
	case <-f.stop:
		return nil
	default:
	}
	f.note(city, err)
	return err
}

// apply installs one batch on top of the city's applied position — the
// snapshot handoff when it moves past applied, then any frames beyond it
// — and records the new position. Both transports land here: the push
// stream once per batch, the one-shot fetch once per cycle. A batch with
// nothing past applied never touches the target: a caught-up fetch or a
// heartbeat-only stream costs the target nothing.
func (f *Follower) apply(city string, applied int64, b *Batch) (int64, error) {
	f.observeEpoch(b)
	handoff := false
	if b.Snapshot != nil && b.SnapshotSeq > applied {
		seq, err := f.target.ApplySnapshot(city, b.Snapshot)
		if err != nil {
			return applied, fmt.Errorf("replicate: snapshot handoff %s: %w", city, err)
		}
		applied = max(applied, seq)
		handoff = true
	}
	if n := len(b.Frames); n > 0 && b.Frames[n-1].Seq > applied {
		seq, err := f.target.ApplyFrames(city, b.Frames)
		if err != nil {
			return applied, fmt.Errorf("replicate: apply %s: %w", city, err)
		}
		applied = max(applied, seq)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if l, ok := f.lag[city]; ok {
		if handoff {
			l.SnapshotHandoffs++
		}
		l.AppliedSeq = applied
		l.resumed = true
		l.PrimarySeq = max(b.PrimarySeq, applied)
		l.PrimaryWALBytes = b.PrimaryWALBytes
		l.Records = l.PrimarySeq - applied
		l.Syncs++
		l.Err = ""
	}
	return applied, nil
}

// note records a stream or fetch cycle's outcome in the city's lag entry.
func (f *Follower) note(city string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	l, ok := f.lag[city]
	if !ok {
		return
	}
	if err != nil {
		l.Err = err.Error()
		if errors.Is(err, ErrWireCorrupt) {
			l.WireRetries++
		}
	} else {
		l.Err = ""
	}
}

// Lag returns a city's replication position.
func (f *Follower) Lag(city string) (Lag, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	l, ok := f.lag[city]
	if !ok {
		return Lag{}, false
	}
	return *l, true
}

// Sync runs one fetch-and-apply cycle for a city: resume from the last
// applied sequence, fetch, take the snapshot handoff if the primary sent
// one, apply the frames, record lag. A torn/corrupt response applies its
// valid prefix and reports ErrWireCorrupt — the next cycle re-fetches
// from wherever apply got to, so a bad frame costs one round trip, never
// consistency.
func (f *Follower) Sync(city string) error {
	err := f.sync(city)
	f.note(city, err)
	return err
}

func (f *Follower) sync(city string) error {
	applied, err := f.resumeSeq(city)
	if err != nil {
		return err
	}
	batch, fetchErr := f.client.Fetch(city, applied)
	if batch == nil {
		return fetchErr
	}
	if _, err := f.apply(city, applied, batch); err != nil {
		return err
	}
	return fetchErr // nil, or the wire corruption the prefix-apply healed around
}

// resumeSeq is where a city's next stream or fetch resumes: the cached
// position once established (every apply records it), else the target's
// durable position.
func (f *Follower) resumeSeq(city string) (int64, error) {
	f.mu.Lock()
	l, ok := f.lag[city]
	if ok && l.resumed {
		seq := l.AppliedSeq
		f.mu.Unlock()
		return seq, nil
	}
	f.mu.Unlock()
	seq, err := f.target.Resume(city)
	if err != nil {
		return 0, fmt.Errorf("replicate: resume %s: %w", city, err)
	}
	return seq, nil
}

// CatchUp syncs every city until each reports zero record lag, or the
// timeout elapses. It is the barrier tests and controlled promotion use:
// after it returns nil, the follower has applied everything the primary
// had committed when its final sync ran.
func (f *Follower) CatchUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	failures := 0
	for {
		behind := ""
		var firstErr error
		for _, city := range f.cities {
			if err := f.Sync(city); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				behind = city
				continue
			}
			if l, ok := f.Lag(city); ok && l.Records > 0 {
				behind = city
			}
		}
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			if firstErr != nil {
				return fmt.Errorf("replicate: catch-up timed out on %s: %w", behind, firstErr)
			}
			return fmt.Errorf("replicate: catch-up timed out on %s", behind)
		}
		// Progress without errors retries almost immediately; failures
		// back off like the tailers do, so catching up against a dead
		// primary does not hammer it until the deadline.
		if firstErr != nil {
			failures++
			time.Sleep(retryBackoff(failures, 10*time.Millisecond))
		} else {
			failures = 0
			time.Sleep(time.Millisecond)
		}
	}
}
