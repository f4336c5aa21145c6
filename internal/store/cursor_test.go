package store

import (
	"errors"
	"os"
	"testing"
)

// TestApplierMatchesReplay is the one-code-path regression test: applying
// a log frame-by-frame through the exported Applier — exactly what a
// replication follower does with shipped frames — must produce the same
// state, and the same resume sequence, as ReplayWAL's restart path over
// the same log. Before the extraction the apply logic was only reachable
// via restart; this pins the two entry points to one behavior.
func TestApplierMatchesReplay(t *testing.T) {
	fx := makeWALFixture(t)
	dir := t.TempDir()
	writeWAL(t, dir, "equiv", fx.records)

	viaReplay, info, err := ReplayWAL(dir, "equiv", fx.city, nil)
	if err != nil {
		t.Fatal(err)
	}

	frames, err := CollectWALFrames(dir, "equiv")
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(fx.records) {
		t.Fatalf("read %d frames, wrote %d records", len(frames), len(fx.records))
	}
	ap, viaApplier, err := NewApplier(nil, fx.city)
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range frames {
		res, err := ap.ApplyPayload(fr.Payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if res.Skipped || res.Seq != fr.Seq {
			t.Fatalf("frame %d applied as %+v", i, res)
		}
	}
	ap.Finish()

	if got, want := stateJSON(t, viaApplier), stateJSON(t, viaReplay); got != want {
		t.Fatalf("applier state differs from replay state:\n%s\nvs\n%s", got, want)
	}
	if ap.LastSeq() != info.LastSeq {
		t.Fatalf("applier resume seq %d, replay %d", ap.LastSeq(), info.LastSeq)
	}
	// The materialization getters see every applied entity.
	if ap.Group(1) == nil || ap.Package(2) == nil || ap.Package(3) == nil || ap.Group(9) != nil {
		t.Fatal("applier getters disagree with the applied state")
	}
}

// TestReadWALFramesLive: the cursor is a pure reader — a torn tail (an
// append cut mid-frame, as on a live log) just ends the committed prefix,
// and the file is left byte-for-byte alone for the appender to continue.
func TestReadWALFramesLive(t *testing.T) {
	fx := makeWALFixture(t)
	dir := t.TempDir()
	writeWAL(t, dir, "live", fx.records)
	path := WALPath(dir, "live")
	whole, err := ReadWALFrames(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != len(fx.records) {
		t.Fatalf("read %d frames, want %d", len(whole), len(fx.records))
	}
	for i, fr := range whole {
		if fr.Seq != int64(i+1) {
			t.Fatalf("frame %d has seq %d", i, fr.Seq)
		}
	}

	// Tear the last record mid-frame.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	prefix, err := ReadWALFrames(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(prefix) != len(fx.records)-1 {
		t.Fatalf("torn log read %d frames, want %d", len(prefix), len(fx.records)-1)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != fi.Size()-7 {
		t.Fatalf("reader modified the file: %d -> %d bytes", fi.Size()-7, after.Size())
	}

	// A headerless file is an error, not an empty read.
	if err := os.WriteFile(path, []byte("not a wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadWALFrames(path); err == nil {
		t.Fatal("headerless file read as empty")
	}
	// A missing file reads as empty (no error): the pending segment is
	// usually absent.
	if frames, err := ReadWALFrames(WALPath(dir, "absent")); err != nil || frames != nil {
		t.Fatalf("missing file: frames=%v err=%v", frames, err)
	}
}

// TestFrameCodec: EncodeFrame/DecodeFrame are exact inverses, and the
// decode side distinguishes torn from corrupt.
func TestFrameCodec(t *testing.T) {
	payload := []byte(`{"op":"x","seq":9}`)
	buf := EncodeFrame(payload)
	got, n, err := DecodeFrame(buf)
	if err != nil || n != len(buf) || string(got) != string(payload) {
		t.Fatalf("round trip: %q n=%d err=%v", got, n, err)
	}
	if _, _, err := DecodeFrame(buf[:len(buf)-1]); !errors.Is(err, ErrFrameTorn) {
		t.Fatalf("torn frame: %v", err)
	}
	flipped := append([]byte(nil), buf...)
	flipped[len(flipped)-1] ^= 0x40
	if _, _, err := DecodeFrame(flipped); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("corrupt frame: %v", err)
	}
}

// TestAppendFrameShipsVerbatim: frames read from one city's log and
// appended to another's one at a time via AppendFrames (the follower's
// persistence path) replay to the identical state, and a re-sent frame
// is skipped, never appended twice.
func TestAppendFrameShipsVerbatim(t *testing.T) {
	fx := makeWALFixture(t)
	dir := t.TempDir()
	writeWAL(t, dir, "primary", fx.records)
	frames, err := ReadWALFrames(WALPath(dir, "primary"))
	if err != nil {
		t.Fatal(err)
	}

	w, err := OpenWAL(dir, "follower", WALSyncPolicy{Mode: WALSyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frames {
		if err := w.AppendFrames([]WALFrame{fr}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendFrames(frames[:1]); err != nil {
		t.Fatalf("re-sent frame: %v", err)
	}
	if got, want := w.LastSeq(), int64(len(frames)); got != want {
		t.Fatalf("follower log at seq %d, want %d", got, want)
	}
	if got, want := w.Stats().Records, int64(len(frames)); got != want {
		t.Fatalf("follower log holds %d records, want %d: the re-sent frame was appended", got, want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st, info, err := ReplayWAL(dir, "follower", fx.city, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Truncated != "" || info.Records != len(fx.records) {
		t.Fatalf("follower replay info %+v", info)
	}
	if got, want := stateJSON(t, st), stateJSON(t, fx.want); got != want {
		t.Fatalf("shipped log replays differently:\n%s\nvs\n%s", got, want)
	}
}

// TestSnapshotRawHandoff: ReadSnapshotRaw surfaces the watermark of a
// real snapshot, and WriteSnapshotRaw installs bytes a normal ReadSnapshot
// then loads — the two halves of the compaction handoff.
func TestSnapshotRawHandoff(t *testing.T) {
	fx := makeWALFixture(t)
	dir := t.TempDir()
	if raw, seq, err := ReadSnapshotRaw(dir, "missing"); raw != nil || seq != 0 || err != nil {
		t.Fatalf("missing snapshot: raw=%v seq=%d err=%v", raw, seq, err)
	}

	st, _, err := replayFixtureState(t, fx)
	if err != nil {
		t.Fatal(err)
	}
	st.WALSeq = 6
	if _, err := WriteSnapshot(dir, "a", st); err != nil {
		t.Fatal(err)
	}
	raw, seq, err := ReadSnapshotRaw(dir, "a")
	if err != nil || seq != 6 || len(raw) == 0 {
		t.Fatalf("raw read: seq=%d err=%v len=%d", seq, err, len(raw))
	}

	if err := WriteSnapshotRaw(dir, "b", raw); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(dir, "b", fx.city)
	if err != nil {
		t.Fatal(err)
	}
	if got.WALSeq != 6 || stateJSON(t, got) != stateJSON(t, st) {
		t.Fatal("raw-installed snapshot loads differently")
	}
}

// replayFixtureState builds the fixture's state via a throwaway log — a
// convenience for tests needing a realistic *ServerState.
func replayFixtureState(t *testing.T, fx *walFixture) (*ServerState, *WALReplayInfo, error) {
	t.Helper()
	dir := t.TempDir()
	writeWAL(t, dir, "tmp", fx.records)
	return ReplayWAL(dir, "tmp", fx.city, nil)
}

// TestApplierFinishKeepsLookupsExact: ids can commit slightly out of id
// order (concurrent mutations), and a follower calls Finish after every
// batch while the applier keeps applying. Finish's sort must keep the
// id lookups exact — a stale index would resolve an id to a different
// record's slot and corrupt the next batch's customOp target.
func TestApplierFinishKeepsLookupsExact(t *testing.T) {
	fx := makeWALFixture(t)
	g := fx.want.Groups[0].Group
	dir := t.TempDir()
	// Two groups committed in reverse id order, then Finish (sorts).
	writeWAL(t, dir, "ooo", []WALRecord{GroupCreateRecord(2, g), GroupCreateRecord(1, g)})
	frames, err := ReadWALFrames(WALPath(dir, "ooo"))
	if err != nil {
		t.Fatal(err)
	}
	ap, st, err := NewApplier(nil, fx.city)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frames {
		if _, err := ap.ApplyPayload(fr.Payload); err != nil {
			t.Fatal(err)
		}
	}
	ap.Finish()
	if st.Groups[0].ID != 1 || st.Groups[1].ID != 2 {
		t.Fatalf("groups not sorted: %d, %d", st.Groups[0].ID, st.Groups[1].ID)
	}
	for id := 1; id <= 2; id++ {
		if gr := ap.Group(id); gr == nil || gr.ID != id {
			t.Fatalf("Group(%d) resolved to %+v after Finish", id, gr)
		}
	}
}
