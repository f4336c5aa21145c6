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
	// next stream resumes. 0 means nothing applied yet.
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
// /healthz. How far it trails is measured where both positions are known:
// the primary's gt_replication_follower_lag and gt_applied_seq on each
// node.
type Lag struct {
	// AppliedSeq is the city's last applied sequence.
	AppliedSeq int64 `json:"appliedSeq"`
	// SnapshotHandoffs counts compaction handoffs taken; WireRetries
	// counts torn/corrupt responses that forced a re-fetch.
	SnapshotHandoffs int64 `json:"snapshotHandoffs"`
	WireRetries      int64 `json:"wireRetries"`
	// Syncs counts applied batches; Err is the last stream's failure
	// (empty once healthy again).
	Syncs int64  `json:"syncs"`
	Err   string `json:"error,omitempty"`

	// resumed: AppliedSeq is established (at least one applied batch), so
	// the next stream can resume from it without consulting the target.
	resumed bool
}

// Follower tails a primary's per-city logs and applies them to a Target.
// One goroutine per city holds a push stream open; Sync and CatchUp read
// the same stream synchronously (tests, promotion barriers), stopping at
// the head the primary announced. Both apply through the same step
// (apply).
type Follower struct {
	client   *Client
	target   Target
	cities   []string
	interval time.Duration

	// onEpoch, when set, is invoked with every nonzero replication term
	// the primary reports (on every applied batch, the first of each
	// stream included), letting the server layer persist and adopt it.
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
		// reconnect. A clean end within a second means something between
		// the two ends answers the stream as one buffered response (a
		// buffering proxy) — reconnecting instantly against that is a hot
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
// — and records the new position. Tailers and Sync both land here, once
// per stream batch. A batch with nothing past applied never touches the
// target: a caught-up stream's first batch costs the target nothing.
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
		l.Syncs++
		l.Err = ""
	}
	return applied, nil
}

// note records a stream's outcome in the city's lag entry.
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

// errSynced stops a Sync's stream once the announced head is applied.
var errSynced = errors.New("replicate: announced head applied")

// Sync brings a city up to the primary's head: it opens the same push
// stream the tailers hold, applies batches as they arrive (the snapshot
// handoff included), and returns nil as soon as it has applied the head
// the primary announced on open — it never waits for the stream to end.
// A torn/corrupt frame applies the valid prefix and reports
// ErrWireCorrupt; the next Sync resumes from wherever apply got to, so a
// bad frame costs one round trip, never consistency. A stream the primary
// ends first (compaction, life cap) is an error naming both sequences.
func (f *Follower) Sync(city string) error {
	return f.sync(context.Background(), city)
}

// sync is Sync bounded by ctx (CatchUp's deadline).
func (f *Follower) sync(ctx context.Context, city string) (err error) {
	defer func() { f.note(city, err) }()
	applied, err := f.resumeSeq(city)
	if err != nil {
		return err
	}
	var head int64
	err = f.client.Stream(ctx, city, applied, func(b *Batch) error {
		head = b.PrimarySeq
		var err error
		if applied, err = f.apply(city, applied, b); err != nil {
			return err
		}
		if applied >= head {
			return errSynced
		}
		return nil
	})
	switch {
	case errors.Is(err, errSynced):
		return nil
	case err == nil:
		return fmt.Errorf("replicate: sync %s: stream ended at seq %d, before the announced head %d", city, applied, head)
	}
	return err
}

// resumeSeq is where a city's next stream resumes: the cached
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

// CatchUp syncs every city until each Sync has returned nil, or the
// timeout elapses. It is the barrier tests and controlled promotion use:
// after it returns nil, every city has applied at least the head its
// primary announced during the call.
func (f *Follower) CatchUp(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	pending := append([]string(nil), f.cities...)
	for failures := 1; ; failures++ {
		var firstErr error
		behind := pending[:0]
		for _, city := range pending {
			if err := f.sync(ctx, city); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				behind = append(behind, city)
			}
		}
		if pending = behind; len(pending) == 0 {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("replicate: catch-up timed out on %s: %w", pending[0], firstErr)
		}
		// Failures back off like the tailers do, so catching up against a
		// dead primary does not hammer it until the deadline.
		select {
		case <-ctx.Done():
		case <-time.After(retryBackoff(failures, 10*time.Millisecond)):
		}
	}
}
