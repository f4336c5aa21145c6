package server

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"grouptravel/internal/replicate"
)

// The epoch/fencing test suite: a node that observes a newer replication
// term than its own must latch read-only (split-brain prevention), the
// latch must survive a restart, and a promotion must cleanly end every
// replication stream the node is serving or consuming.

// sendEpoch delivers a term to a node the way a peer would: stamped on
// any request's headers (the epoch wrapper observes it before routing).
func sendEpoch(t *testing.T, baseURL string, term int64, owner string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", baseURL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(replicate.HeaderEpoch, strconv.FormatInt(term, 10))
	if owner != "" {
		req.Header.Set(replicate.HeaderEpochPrimary, owner)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestEpochFencesPrimary: a writable primary that hears a higher term
// owned by someone else latches read-only and points writers at the new
// owner; lower/equal terms are ignored.
func TestEpochFencesPrimary(t *testing.T) {
	dir := t.TempDir()
	p, pts, _, _ := replicationPair(t,
		Options{SnapshotDir: dir},
		Options{SnapshotDir: t.TempDir()})

	if _, err := mcCreateGroup(pts, mcCities[0], "alpha"); err != nil {
		t.Fatal(err)
	}
	if term, _ := p.Epoch(); term != 0 {
		t.Fatalf("fresh primary term = %d, want 0", term)
	}

	// A relayed request carrying term 5 owned by another node fences.
	resp := sendEpoch(t, pts.URL, 5, "http://new-primary:9")
	if got := resp.Header.Get(replicate.HeaderEpoch); got != "5" {
		t.Fatalf("response epoch header = %q, want 5", got)
	}
	if role := p.Role(); role != "fenced" {
		t.Fatalf("role = %q, want fenced", role)
	}
	if term, owner := p.Epoch(); term != 5 || owner != "http://new-primary:9" {
		t.Fatalf("epoch = %d/%q", term, owner)
	}

	// Every post-epoch write is rejected with the new primary's address.
	reqResp, err := http.Post(pts.URL+"/cities/alpha/groups", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(reqResp.Body)
	reqResp.Body.Close()
	if reqResp.StatusCode != http.StatusForbidden {
		t.Fatalf("fenced mutation: %d %s", reqResp.StatusCode, body)
	}
	if got := reqResp.Header.Get("X-GT-Primary"); got != "http://new-primary:9" {
		t.Fatalf("fenced X-GT-Primary = %q", got)
	}

	// A stale (lower) term changes nothing.
	sendEpoch(t, pts.URL, 3, "http://even-older:9")
	if term, owner := p.Epoch(); term != 5 || owner != "http://new-primary:9" {
		t.Fatalf("epoch after stale observe = %d/%q", term, owner)
	}

	// The fence is durable: a restart over the same state dir comes back
	// fenced, not writable.
	pts.Close()
	p.Close()
	p2, err := NewMultiCity(Options{SnapshotDir: dir, Cities: mcCities})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if role := p2.Role(); role != "fenced" {
		t.Fatalf("restarted role = %q, want fenced", role)
	}
	if term, owner := p2.Epoch(); term != 5 || owner != "http://new-primary:9" {
		t.Fatalf("restarted epoch = %d/%q", term, owner)
	}
}

// TestPromotedRoleSurvivesRestart: a promoted follower restarted over
// the same state dir must come back writable under its own term — not
// re-tail the deposed upstream it was configured against.
func TestPromotedRoleSurvivesRestart(t *testing.T) {
	fdir := t.TempDir()
	_, pts, f, fts := replicationPair(t,
		Options{SnapshotDir: t.TempDir()},
		Options{SnapshotDir: fdir, Advertise: "http://follower-b:9"})
	if _, err := mcCreateGroup(pts, mcCities[0], "alpha"); err != nil {
		t.Fatal(err)
	}
	if err := f.Follower().CatchUp(testTimeout()); err != nil {
		t.Fatal(err)
	}
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	if term, owner := f.Epoch(); term != 1 || owner != "http://follower-b:9" {
		t.Fatalf("promoted epoch = %d/%q", term, owner)
	}
	fts.Close()
	f.Close()

	f2, err := NewMultiCity(Options{
		SnapshotDir: fdir, Cities: mcCities,
		Follow: pts.URL, FollowPoll: -1, Advertise: "http://follower-b:9",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if role := f2.Role(); role != "promoted" {
		t.Fatalf("restarted role = %q, want promoted", role)
	}
	if f2.Follower() != nil {
		t.Fatal("restarted promoted node built a follower tailing the deposed primary")
	}
	// And it is actually writable.
	fts2 := httptest.NewServer(f2.Handler())
	defer fts2.Close()
	if _, err := mcCreateGroup(fts2, mcCities[0], "alpha"); err != nil {
		t.Fatalf("promoted-at-boot node refused a write: %v", err)
	}
}

// TestPromoteWhileStreaming: promoting a follower that (a) is tailing
// the primary over a live push stream and (b) is itself serving an
// inbound /wal stream consumer must cleanly end both exactly once — the
// outbound tailer stops applying, the inbound consumer's response
// terminates so it can re-handshake against the new role — while the
// promoted node keeps serving writes. Run under -race via `make race`.
func TestPromoteWhileStreaming(t *testing.T) {
	p, pts, f, fts := replicationPair(t,
		Options{SnapshotDir: t.TempDir()},
		Options{SnapshotDir: t.TempDir(), FollowPoll: 2 * time.Millisecond, Advertise: "http://follower-b:9"})

	// Workload on the primary while the follower's push tailers run.
	m := &mutator{ts: pts, city: mcCities[0], key: "alpha", rng: rand.New(rand.NewSource(42))}
	for i := 0; i < 8; i++ {
		m.step(t)
	}
	if t.Failed() {
		t.FailNow()
	}
	waitApplied := func(min int64) int64 {
		t.Helper()
		deadline := time.Now().Add(testTimeout())
		for {
			if l, ok := f.Follower().Lag("alpha"); ok && l.AppliedSeq >= min {
				return l.AppliedSeq
			}
			if time.Now().After(deadline) {
				l, _ := f.Follower().Lag("alpha")
				t.Fatalf("follower never reached seq %d (at %+v)", min, l)
			}
			time.Sleep(time.Millisecond)
		}
	}
	applied := waitApplied(1)

	// An inbound push consumer on the follower (a cascading replica).
	streamResp, err := http.Get(fmt.Sprintf("%s/cities/alpha/wal?from=%d&hb=100ms&fid=probe", fts.URL, applied))
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if streamResp.StatusCode != http.StatusOK {
		t.Fatalf("inbound stream: %d", streamResp.StatusCode)
	}
	streamDone := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, streamResp.Body)
		streamDone <- err
	}()

	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}

	// The inbound consumer's stream ends promptly (the seal wakes it and
	// the term check terminates the push loop).
	select {
	case <-streamDone:
	case <-time.After(testTimeout()):
		t.Fatal("inbound push stream did not end on promote")
	}

	// The outbound tailer is stopped: later primary writes never apply.
	frozen, _ := f.Follower().Lag("alpha")
	for i := 0; i < 6; i++ {
		m.step(t)
	}
	if t.Failed() {
		t.FailNow()
	}
	time.Sleep(20 * time.Millisecond) // would be ample for a live tailer
	after, _ := f.Follower().Lag("alpha")
	if after.AppliedSeq != frozen.AppliedSeq {
		t.Fatalf("promoted node kept applying: %d -> %d", frozen.AppliedSeq, after.AppliedSeq)
	}

	// The promoted node serves writes under its own term.
	if role := f.Role(); role != "promoted" {
		t.Fatalf("role = %q", role)
	}
	if _, err := mcCreateGroup(fts, mcCities[0], "alpha"); err != nil {
		t.Fatalf("promoted node refused a write: %v", err)
	}
	if term, owner := f.Epoch(); term != 1 || owner != "http://follower-b:9" {
		t.Fatalf("epoch = %d/%q", term, owner)
	}

	// Promote is idempotent — a second call (the router retrying, an
	// operator double-firing the runbook) is a no-op, not a second bump.
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	if term, _ := f.Epoch(); term != 1 {
		t.Fatalf("re-promote bumped the term to %d", term)
	}

	// The deposed primary fences on its next contact with the promoted
	// node's term (here: relayed by hand, as a router poll would).
	sendEpoch(t, pts.URL, 1, "http://follower-b:9")
	if role := p.Role(); role != "fenced" {
		t.Fatalf("deposed primary role = %q, want fenced", role)
	}
}
