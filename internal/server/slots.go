package server

import (
	"sort"
	"sync"
	"time"

	"grouptravel/internal/telemetry"
)

// Replication slots make the primary fan-out-aware. Each follower that
// opens a push stream with a ?fid= handshake gets one slot per city,
// tracking the last sequence shipped to it and when the stream last
// proved itself alive (frames or heartbeats). The slot table feeds three
// consumers: /healthz (the operator's who-is-behind view), /metrics
// (gt_replication_follower_lag), and compaction — which holds off while
// a live slot still needs records the snapshot rewrite would fold away,
// so a briefly-lagging follower keeps streaming frames instead of being
// bounced through a full snapshot handoff.
//
// Slots are an optimization, never a correctness gate: a dropped or
// never-registered follower recovers through the ordinary compaction
// handoff (snapshot + suffix). That is what licenses the deadlines —
// a dead follower's slot is collected after slotStaleAfter without being
// fed, and a live-but-stuck one stops holding compaction after
// slotHoldDeadline. Any client can handshake with a fresh ?fid=, so every
// new slot first collects the stale ones, and a dropped slot takes its
// lag series with it: the table and /metrics stay bounded by the live
// streams.

const (
	// slotStaleAfter collects slots whose stream stopped feeding them.
	// Heartbeats touch the slot on the stream's hb cadence (default 2s),
	// so a live stream — even fully caught up and idle — refreshes well
	// inside this window. A slot outlives its stream until then: the
	// follower usually reconnects within a heartbeat, and dropping the
	// slot at stream end would open a compaction window mid-reconnect.
	slotStaleAfter = 10 * time.Second
	// slotHoldDeadline caps how long one lagging slot can hold compaction
	// before it is dropped (its follower then resyncs via handoff).
	slotHoldDeadline = 30 * time.Second
)

// followerLagMetric is the per-(follower, city) series each slot feeds.
const followerLagMetric = "gt_replication_follower_lag"

type slotKey struct{ follower, city string }

type slot struct {
	seq       int64     // last sequence shipped to this follower
	lastSeen  time.Time // last frame or heartbeat written to its stream
	holdSince time.Time // zero unless currently holding a compaction
	lag       *telemetry.Gauge
}

// slotTable is the per-process registry of follower stream positions.
type slotTable struct {
	mu    sync.Mutex
	slots map[slotKey]*slot
	reg   *telemetry.Registry
	now   func() time.Time // injectable for deadline tests
}

func newSlotTable(reg *telemetry.Registry) *slotTable {
	return &slotTable{slots: make(map[slotKey]*slot), reg: reg, now: time.Now}
}

// update records frames shipped to a follower: its position advances to
// seq and the slot is marked alive. head is the city's current log head,
// for the lag gauge.
func (t *slotTable) update(follower, city string, seq, head int64) {
	if follower == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := slotKey{follower: follower, city: city}
	s := t.slots[k]
	if s == nil {
		t.collectStale(t.now())
		s = &slot{lag: t.reg.Gauge(followerLagMetric,
			"Records between the primary's log head and this follower's stream position.",
			"follower", follower, "city", city)}
		t.slots[k] = s
	}
	if seq > s.seq {
		s.seq = seq
	}
	s.lastSeen = t.now()
	s.lag.Set(max(head-s.seq, 0))
}

// touch refreshes a slot's liveness without moving its position — the
// heartbeat path of an idle stream.
func (t *slotTable) touch(follower, city string, head int64) {
	if follower == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.slots[slotKey{follower: follower, city: city}]; ok {
		s.lastSeen = t.now()
		s.lag.Set(max(head-s.seq, 0))
	}
}

// hold reports whether a compaction of city should wait: true while a
// live slot's position is behind head (the records it still needs would
// be folded into the snapshot). Dead slots are collected here, and a slot
// that has held compaction past slotHoldDeadline is dropped — its
// follower pays one snapshot handoff instead of pinning the log forever.
func (t *slotTable) hold(city string, head int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.collectStale(now)
	holding := false
	for k, s := range t.slots {
		if k.city != city {
			continue
		}
		if s.seq >= head {
			s.holdSince = time.Time{}
			continue
		}
		if s.holdSince.IsZero() {
			s.holdSince = now
		} else if now.Sub(s.holdSince) > slotHoldDeadline {
			t.drop(k)
			continue
		}
		holding = true
	}
	return holding
}

// collectStale drops every slot whose stream stopped feeding it. t.mu
// must be held.
func (t *slotTable) collectStale(now time.Time) {
	for k, s := range t.slots {
		if now.Sub(s.lastSeen) > slotStaleAfter {
			t.drop(k)
		}
	}
}

// drop removes a slot and its lag series. t.mu must be held.
func (t *slotTable) drop(k slotKey) {
	delete(t.slots, k)
	t.reg.Unregister(followerLagMetric, "follower", k.follower, "city", k.city)
}

// slotHealth is one follower-city row of the /healthz replication view.
type slotHealth struct {
	Follower  string `json:"follower"`
	City      string `json:"city"`
	Seq       int64  `json:"seq"`
	AgeMillis int64  `json:"ageMillis"`
	Holding   bool   `json:"holdingCompaction,omitempty"`
}

func (t *slotTable) snapshot() []slotHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.slots) == 0 {
		return nil
	}
	now := t.now()
	out := make([]slotHealth, 0, len(t.slots))
	for k, s := range t.slots {
		out = append(out, slotHealth{
			Follower:  k.follower,
			City:      k.city,
			Seq:       s.seq,
			AgeMillis: now.Sub(s.lastSeen).Milliseconds(),
			Holding:   !s.holdSince.IsZero(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].City != out[j].City {
			return out[i].City < out[j].City
		}
		return out[i].Follower < out[j].Follower
	})
	return out
}
