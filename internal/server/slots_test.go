package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"grouptravel/internal/telemetry"
)

// slotClock is a settable clock for slotTable.now.
type slotClock struct{ t time.Time }

func (c *slotClock) now() time.Time          { return c.t }
func (c *slotClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestSlots() (*slotTable, *telemetry.Registry, *slotClock) {
	reg := telemetry.NewRegistry()
	clk := &slotClock{t: time.Unix(1_700_000_000, 0)}
	t := newSlotTable(reg)
	t.now = clk.now
	return t, reg, clk
}

// lagSeries counts the gt_replication_follower_lag rows a scrape renders.
func lagSeries(reg *telemetry.Registry) int {
	return strings.Count(reg.Render(), "gt_replication_follower_lag{")
}

// TestSlotFloodCollectedOnHandshake: any client can open /wal with a
// fresh ?fid=, and each one used to leave a slot and a lag series behind
// for good on a quiet city (only a compaction collected slots, and never
// their series). A new handshake collects the stale slots first, series
// included.
func TestSlotFloodCollectedOnHandshake(t *testing.T) {
	slots, reg, clk := newTestSlots()
	for i := 0; i < 200; i++ {
		slots.update(fmt.Sprintf("flood-%d", i), "alpha", 5, 5)
	}
	clk.advance(time.Hour)
	slots.update("late", "alpha", 5, 5)
	if n := len(slots.snapshot()); n != 1 {
		t.Fatalf("slots after the flood went stale = %d, want 1", n)
	}
	if n := lagSeries(reg); n != 1 {
		t.Fatalf("lag series after the flood went stale = %d, want 1", n)
	}
}

// TestSlotHoldReleasesOnCatchUp: a live slot behind the head holds
// compaction; once its follower catches up, the hold releases.
func TestSlotHoldReleasesOnCatchUp(t *testing.T) {
	slots, _, clk := newTestSlots()
	slots.update("f1", "alpha", 3, 10)
	if !slots.hold("alpha", 10) {
		t.Fatal("a live slot behind the head did not hold compaction")
	}
	if slots.hold("beta", 10) {
		t.Fatal("a slot held compaction of another city")
	}
	clk.advance(time.Second)
	slots.update("f1", "alpha", 10, 10)
	if slots.hold("alpha", 10) {
		t.Fatal("a caught-up slot still holds compaction")
	}
	if got := slots.snapshot(); len(got) != 1 || got[0].Holding {
		t.Fatalf("slots after catch-up = %+v", got)
	}
}

// TestSlotHoldCollectsStale: a slot whose stream stopped feeding it no
// longer holds compaction, and is collected with its series.
func TestSlotHoldCollectsStale(t *testing.T) {
	slots, reg, clk := newTestSlots()
	slots.update("f1", "alpha", 3, 10)
	clk.advance(slotStaleAfter + time.Second)
	if slots.hold("alpha", 10) {
		t.Fatal("a stale slot held compaction")
	}
	if n := len(slots.snapshot()); n != 0 {
		t.Fatalf("stale slot not collected: %d slots", n)
	}
	if n := lagSeries(reg); n != 0 {
		t.Fatalf("stale slot's series not removed: %d series", n)
	}
}

// TestSlotHoldDeadline: a live slot that holds compaction longer than
// slotHoldDeadline is dropped with its series; its follower pays one
// snapshot handoff instead of pinning the log.
func TestSlotHoldDeadline(t *testing.T) {
	slots, reg, clk := newTestSlots()
	slots.update("f1", "alpha", 3, 10)
	if !slots.hold("alpha", 10) {
		t.Fatal("a live slot behind the head did not hold compaction")
	}
	// Heartbeats keep the slot live while it stays behind: it holds until
	// the deadline passes, then it is dropped.
	step := slotStaleAfter / 2
	for elapsed := step; ; elapsed += step {
		clk.advance(step)
		slots.touch("f1", "alpha", 10)
		held := slots.hold("alpha", 10)
		if elapsed <= slotHoldDeadline {
			if !held {
				t.Fatalf("released %v into the hold, before the %v deadline", elapsed, slotHoldDeadline)
			}
			continue
		}
		if held {
			t.Fatalf("still holding %v into the hold, past the %v deadline", elapsed, slotHoldDeadline)
		}
		break
	}
	if n := len(slots.snapshot()); n != 0 {
		t.Fatalf("slot past the hold deadline not dropped: %d slots", n)
	}
	if n := lagSeries(reg); n != 0 {
		t.Fatalf("dropped slot's series not removed: %d series", n)
	}
}
