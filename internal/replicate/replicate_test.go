package replicate

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"grouptravel/internal/store"
)

// testFrames builds n wire frames with dense sequences starting at from+1.
func testFrames(from int64, n int) []store.WALFrame {
	frames := make([]store.WALFrame, 0, n)
	for i := 0; i < n; i++ {
		seq := from + 1 + int64(i)
		frames = append(frames, store.WALFrame{
			Seq:     seq,
			Payload: []byte(fmt.Sprintf(`{"op":"test","seq":%d,"pad":"xxxxxxxxxxxxxxxx"}`, seq)),
		})
	}
	return frames
}

// serve runs an httptest server answering every /wal request with the
// given batch, optionally mangling the body through corrupt.
func serve(t *testing.T, batch *Batch, corrupt func([]byte) []byte) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if corrupt == nil {
			if err := WriteStream(w, batch); err != nil {
				t.Error(err)
			}
			return
		}
		rec := httptest.NewRecorder()
		if err := WriteStream(rec, batch); err != nil {
			t.Error(err)
		}
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		_, _ = w.Write(corrupt(rec.Body.Bytes()))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// holdOpen serves batch the way a live primary does: written, flushed,
// then held open until the client goes away.
func holdOpen(t *testing.T, batch *Batch) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := WriteStream(w, batch); err != nil {
			t.Error(err)
			return
		}
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	return ts
}

// streamAll runs one Stream for "paris" and returns every batch apply
// saw, in order.
func streamAll(base string, from int64) ([]*Batch, error) {
	var got []*Batch
	err := (&Client{Base: base}).Stream(context.Background(), "paris", from, func(b *Batch) error {
		cp := *b
		cp.Frames = append([]store.WALFrame(nil), b.Frames...)
		got = append(got, &cp)
		return nil
	})
	return got, err
}

// framesOf concatenates the frames of a stream's batches.
func framesOf(batches []*Batch) []store.WALFrame {
	var out []store.WALFrame
	for _, b := range batches {
		out = append(out, b.Frames...)
	}
	return out
}

// TestStreamRoundTrip: WriteStream → Stream is lossless — frames, their
// sequences, the snapshot section and the announced head all survive.
// The first apply comes before any frame and carries the head and the
// handoff; a caught-up stream still gets that one apply.
func TestStreamRoundTrip(t *testing.T) {
	want := &Batch{
		Snapshot:    []byte(`{"version":1,"walSeq":4}`),
		SnapshotSeq: 4,
		Frames:      testFrames(4, 3),
		PrimarySeq:  7,
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("stream") {
			t.Errorf("client sent a stream parameter: %s", r.URL.RawQuery)
		}
		if err := WriteStream(w, want); err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(ts.Close)
	got, err := streamAll(ts.URL, 2)
	if err != nil {
		t.Fatal(err)
	}
	first := got[0]
	if string(first.Snapshot) != string(want.Snapshot) || first.SnapshotSeq != 4 || len(first.Frames) != 0 {
		t.Fatalf("first batch: snapshot %q seq %d, %d frames", first.Snapshot, first.SnapshotSeq, len(first.Frames))
	}
	frames := framesOf(got)
	if len(frames) != 3 {
		t.Fatalf("got %d frames", len(frames))
	}
	for i, fr := range frames {
		if fr.Seq != want.Frames[i].Seq || string(fr.Payload) != string(want.Frames[i].Payload) {
			t.Fatalf("frame %d: %+v", i, fr)
		}
	}
	for i, b := range got {
		if b.PrimarySeq != 7 || (i > 0 && b.Snapshot != nil) {
			t.Fatalf("batch %d: head %d, snapshot %q", i, b.PrimarySeq, b.Snapshot)
		}
	}

	// Caught up: no snapshot header, no frames — exactly one apply, which
	// carries the head.
	got, err = streamAll(serve(t, &Batch{PrimarySeq: 2}, nil).URL, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].PrimarySeq != 2 || got[0].Snapshot != nil || len(got[0].Frames) != 0 {
		t.Fatalf("caught-up stream applied %+v", got)
	}
}

// TestStreamCorruptFrame: a flipped byte inside a middle frame is caught
// by its CRC. The client applies the intact prefix and reports
// ErrWireCorrupt — the corrupt frame and everything after it are
// withheld entirely, never partially surfaced.
func TestStreamCorruptFrame(t *testing.T) {
	frames := testFrames(0, 5)
	// Flip a byte inside the third frame's payload.
	off := int64(len("GTREPv1\n"))
	for _, fr := range frames[:2] {
		off += fr.WireLen()
	}
	ts := serve(t, &Batch{Frames: frames, PrimarySeq: 5}, func(body []byte) []byte {
		body[off+12] ^= 0x20
		return body
	})
	got, err := streamAll(ts.URL, 0)
	if !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("err = %v", err)
	}
	prefix := framesOf(got)
	if len(prefix) != 2 || prefix[0].Seq != 1 || prefix[1].Seq != 2 {
		t.Fatalf("valid prefix = %+v", prefix)
	}

	// A truncated body (connection cut mid-frame) behaves the same way.
	tsTorn := serve(t, &Batch{Frames: frames, PrimarySeq: 5}, func(body []byte) []byte {
		return body[:len(body)-9]
	})
	got, err = streamAll(tsTorn.URL, 0)
	if !errors.Is(err, ErrWireCorrupt) || len(framesOf(got)) != 4 {
		t.Fatalf("torn body: frames=%d err=%v", len(framesOf(got)), err)
	}

	// A corrupt snapshot section poisons the whole response: nothing is
	// applied, not even the head (the frames depend on the snapshot's base).
	snap := &Batch{Snapshot: []byte(`{"walSeq":3}`), SnapshotSeq: 3, Frames: testFrames(3, 2)}
	tsSnap := serve(t, snap, func(body []byte) []byte {
		body[len("GTREPv1\n")+snapshotHeaderLen+2] ^= 0x01
		return body
	})
	got, err = streamAll(tsSnap.URL, 0)
	if !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("corrupt snapshot err = %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("corrupt snapshot surfaced content: %+v", got)
	}
}

// TestStreamErrors: 409 maps to ErrFollowerAhead; other statuses carry
// the body message; a non-stream body is rejected.
func TestStreamErrors(t *testing.T) {
	var status atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(int(status.Load()))
		_, _ = w.Write([]byte(`{"error":"nope"}`))
	}))
	t.Cleanup(ts.Close)

	status.Store(http.StatusConflict)
	if _, err := streamAll(ts.URL, 9); !errors.Is(err, ErrFollowerAhead) {
		t.Fatalf("409: %v", err)
	}
	status.Store(http.StatusServiceUnavailable)
	if _, err := streamAll(ts.URL, 0); err == nil || errors.Is(err, ErrFollowerAhead) || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("503: %v", err)
	}
	status.Store(http.StatusOK)
	if _, err := streamAll(ts.URL, 0); err == nil {
		t.Fatal("non-stream body accepted")
	}
}

// TestFollowerLagAccounting drives a Follower against a scripted target
// and primary: a sync applies the handoff and the frames up to the
// announced head, and the lag entry records the position and the
// handoff.
func TestFollowerLagAccounting(t *testing.T) {
	batch := &Batch{
		Snapshot:    []byte(`{"walSeq":2}`),
		SnapshotSeq: 2,
		Frames:      testFrames(2, 3),
		PrimarySeq:  5,
	}
	ts := serve(t, batch, nil)
	tgt := &scriptTarget{}
	f := NewFollower(ts.URL, []string{"paris"}, tgt, -1)
	if err := f.Sync("paris"); err != nil {
		t.Fatal(err)
	}
	lag, ok := f.Lag("paris")
	if !ok {
		t.Fatal("no lag for paris")
	}
	// At least two applied batches: the first (head + handoff), then the
	// frames.
	if lag.AppliedSeq != 5 || lag.SnapshotHandoffs != 1 || lag.Syncs < 2 || lag.Err != "" {
		t.Fatalf("lag = %+v", lag)
	}
	if tgt.snapshots != 1 || tgt.applied != 3 {
		t.Fatalf("target saw %d snapshots, %d frames", tgt.snapshots, tgt.applied)
	}
	// A second sync resumes at the head: the stale handoff is skipped.
	if err := f.Sync("paris"); err != nil {
		t.Fatal(err)
	}
	if tgt.snapshots != 1 || tgt.applied != 3 {
		t.Fatalf("caught-up sync touched the target: %d snapshots, %d frames", tgt.snapshots, tgt.applied)
	}
}

// TestSyncStopsAtAnnouncedHead: the primary holds the stream open, as a
// live one does. Sync must return once it has applied the announced head
// — well inside one heartbeat — instead of waiting for the stream to end,
// both when frames carry it there and when it is caught up already.
func TestSyncStopsAtAnnouncedHead(t *testing.T) {
	ts := holdOpen(t, &Batch{Frames: testFrames(0, 3), PrimarySeq: 3})
	for _, start := range []int64{0, 3} {
		f := NewFollower(ts.URL, []string{"paris"}, &scriptTarget{seq: start}, -1)
		began := time.Now()
		if err := f.Sync("paris"); err != nil {
			t.Fatalf("from %d: %v", start, err)
		}
		if took := time.Since(began); took > DefaultStreamHeartbeat/4 {
			t.Fatalf("from %d: Sync took %v on a held stream", start, took)
		}
		if lag, _ := f.Lag("paris"); lag.AppliedSeq != 3 || lag.Err != "" {
			t.Fatalf("from %d: lag = %+v", start, lag)
		}
	}
}

// TestSyncShortStreamFails: a response that ends before the announced
// head (compaction, life cap) is an error naming both sequences, and the
// prefix stays applied.
func TestSyncShortStreamFails(t *testing.T) {
	ts := serve(t, &Batch{Frames: testFrames(0, 5), PrimarySeq: 6}, nil)
	f := NewFollower(ts.URL, []string{"paris"}, &scriptTarget{}, -1)
	err := f.Sync("paris")
	if err == nil || !strings.Contains(err.Error(), "seq 5") || !strings.Contains(err.Error(), "head 6") {
		t.Fatalf("short stream: %v", err)
	}
	if lag, _ := f.Lag("paris"); lag.AppliedSeq != 5 || lag.Err == "" {
		t.Fatalf("lag = %+v", lag)
	}
}

// scriptTarget is a minimal in-memory Target.
type scriptTarget struct {
	seq       int64
	snapshots int
	applied   int
}

func (s *scriptTarget) Resume(string) (int64, error) { return s.seq, nil }

func (s *scriptTarget) ApplySnapshot(_ string, raw []byte) (int64, error) {
	s.snapshots++
	s.seq = 2 // the scripted snapshot's watermark
	return s.seq, nil
}

func (s *scriptTarget) ApplyFrames(_ string, frames []store.WALFrame) (int64, error) {
	for _, fr := range frames {
		if fr.Seq <= s.seq {
			continue
		}
		s.seq = fr.Seq
		s.applied++
	}
	return s.seq, nil
}
