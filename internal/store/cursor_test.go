package store

import (
	"errors"
	"os"
	"testing"
)

// TestReadWALFramesLive: the cursor is a pure reader — a torn tail (an
// append cut mid-frame, as on a live log) just ends the committed prefix,
// and the file is left byte-for-byte alone for the appender to continue.
func TestReadWALFramesLive(t *testing.T) {
	fx := makeWALFixture(t)
	dir := t.TempDir()
	writeWAL(t, dir, "live", fx.records)
	path := WALPath(dir, "live")
	whole, _, err := ReadWALFramesAt(path, 0)
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
	prefix, _, err := ReadWALFramesAt(path, 0)
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
	if _, _, err := ReadWALFramesAt(path, 0); err == nil {
		t.Fatal("headerless file read as empty")
	}
	// A missing file reads as empty (no error).
	if frames, _, err := ReadWALFramesAt(WALPath(dir, "absent"), 0); err != nil || frames != nil {
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
	frames, _, err := ReadWALFramesAt(WALPath(dir, "primary"), 0)
	if err != nil {
		t.Fatal(err)
	}

	w, err := OpenWAL(dir, "follower")
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

	recs, info := replay(t, dir, "follower", fx.city, 0)
	if info.Truncated != "" || info.Records != len(fx.records) {
		t.Fatalf("follower replay info %+v", info)
	}
	if got, want := streamJSON(t, recs), writtenJSON(t, 1, fx.records); got != want {
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

	st := *fx.want
	st.WALSeq = 6
	if _, err := WriteSnapshot(dir, "a", &st); err != nil {
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
	if got.WALSeq != 6 || stateJSON(t, got) != stateJSON(t, &st) {
		t.Fatal("raw-installed snapshot loads differently")
	}
}
