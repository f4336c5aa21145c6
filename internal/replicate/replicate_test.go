package replicate

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

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

// TestStreamRoundTrip: WriteStream → Fetch is lossless — frames, their
// sequences, the snapshot section and the position headers all survive.
func TestStreamRoundTrip(t *testing.T) {
	want := &Batch{
		Snapshot:        []byte(`{"version":1,"walSeq":4}`),
		SnapshotSeq:     4,
		Frames:          testFrames(4, 3),
		PrimarySeq:      7,
		PrimaryWALBytes: 321,
	}
	ts := serve(t, want, nil)
	got, err := (&Client{Base: ts.URL}).Fetch("paris", 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Snapshot) != string(want.Snapshot) || got.SnapshotSeq != 4 {
		t.Fatalf("snapshot section: %q seq %d", got.Snapshot, got.SnapshotSeq)
	}
	if len(got.Frames) != 3 {
		t.Fatalf("got %d frames", len(got.Frames))
	}
	for i, fr := range got.Frames {
		if fr.Seq != want.Frames[i].Seq || string(fr.Payload) != string(want.Frames[i].Payload) {
			t.Fatalf("frame %d: %+v", i, fr)
		}
	}
	if got.PrimarySeq != 7 || got.PrimaryWALBytes != 321 {
		t.Fatalf("headers: %+v", got)
	}

	// Without a snapshot section the header is absent and Snapshot nil.
	ts2 := serve(t, &Batch{Frames: testFrames(0, 2), PrimarySeq: 2}, nil)
	got2, err := (&Client{Base: ts2.URL}).Fetch("paris", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Snapshot != nil || len(got2.Frames) != 2 {
		t.Fatalf("plain batch: %+v", got2)
	}
}

// TestStreamCorruptFrame: a flipped byte inside a middle frame is caught
// by its CRC. The client surfaces the intact prefix with ErrWireCorrupt —
// the corrupt frame and everything after it are withheld entirely, never
// partially surfaced.
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
	got, err := (&Client{Base: ts.URL}).Fetch("paris", 0)
	if !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("err = %v", err)
	}
	if got == nil || len(got.Frames) != 2 {
		t.Fatalf("valid prefix = %+v", got)
	}
	if got.Frames[0].Seq != 1 || got.Frames[1].Seq != 2 {
		t.Fatalf("prefix frames: %+v", got.Frames)
	}

	// A truncated body (connection cut mid-frame) behaves the same way.
	tsTorn := serve(t, &Batch{Frames: frames, PrimarySeq: 5}, func(body []byte) []byte {
		return body[:len(body)-9]
	})
	got, err = (&Client{Base: tsTorn.URL}).Fetch("paris", 0)
	if !errors.Is(err, ErrWireCorrupt) || len(got.Frames) != 4 {
		t.Fatalf("torn body: frames=%d err=%v", len(got.Frames), err)
	}

	// A corrupt snapshot section poisons the whole batch (no frames are
	// surfaced: they depend on the snapshot's base).
	snap := &Batch{Snapshot: []byte(`{"walSeq":3}`), SnapshotSeq: 3, Frames: testFrames(3, 2)}
	tsSnap := serve(t, snap, func(body []byte) []byte {
		body[len("GTREPv1\n")+snapshotHeaderLen+2] ^= 0x01
		return body
	})
	got, err = (&Client{Base: tsSnap.URL}).Fetch("paris", 0)
	if !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("corrupt snapshot err = %v", err)
	}
	if got != nil && (got.Snapshot != nil || len(got.Frames) != 0) {
		t.Fatalf("corrupt snapshot surfaced content: %+v", got)
	}
}

// TestFetchErrors: 409 maps to ErrFollowerAhead; other statuses carry the
// body message; a non-stream body is rejected.
func TestFetchErrors(t *testing.T) {
	var status atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(int(status.Load()))
		_, _ = w.Write([]byte(`{"error":"nope"}`))
	}))
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL}

	status.Store(http.StatusConflict)
	if _, err := c.Fetch("paris", 9); !errors.Is(err, ErrFollowerAhead) {
		t.Fatalf("409: %v", err)
	}
	status.Store(http.StatusServiceUnavailable)
	if _, err := c.Fetch("paris", 0); err == nil || errors.Is(err, ErrFollowerAhead) {
		t.Fatalf("503: %v", err)
	}
	status.Store(http.StatusOK)
	if _, err := c.Fetch("paris", 0); err == nil {
		t.Fatal("non-stream body accepted")
	}
}

// TestFollowerLagAccounting drives a Follower against a scripted target
// and primary: after a sync the lag reflects the primary's head, and a
// snapshot handoff is counted.
func TestFollowerLagAccounting(t *testing.T) {
	frames := testFrames(2, 3)
	batch := &Batch{
		Snapshot:        []byte(`{"walSeq":2}`),
		SnapshotSeq:     2,
		Frames:          frames,
		PrimarySeq:      6, // one record beyond what this batch carries
		PrimaryWALBytes: 777,
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
	if lag.AppliedSeq != 5 || lag.PrimarySeq != 6 || lag.Records != 1 {
		t.Fatalf("lag = %+v", lag)
	}
	if lag.SnapshotHandoffs != 1 || lag.PrimaryWALBytes != 777 || lag.Syncs != 1 || lag.Err != "" {
		t.Fatalf("lag counters = %+v", lag)
	}
	if tgt.snapshots != 1 || tgt.applied != 3 {
		t.Fatalf("target saw %d snapshots, %d frames", tgt.snapshots, tgt.applied)
	}
	// Unknown city: the error is recorded, not swallowed.
	if err := f.Sync("paris"); err != nil {
		t.Fatal(err)
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
