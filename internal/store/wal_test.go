package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"grouptravel/internal/consensus"
	"grouptravel/internal/core"
	"grouptravel/internal/dataset"
	"grouptravel/internal/interact"
	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
	"grouptravel/internal/query"
	"grouptravel/internal/rng"
)

// walFixture is a realistic mutation history: a group, a weighted package
// build, a customization session applying one of every §3.3 operator, and
// a refined rebuild that inherits the weights — one WAL record each,
// exactly as the server logs them.
type walFixture struct {
	city    *dataset.City
	records []Record
	// want is the state the records reconstruct, assembled independently
	// from the same session the records were captured from.
	want *ServerState
}

func makeWALFixture(t testing.TB) *walFixture {
	t.Helper()
	c := city(t)
	e, err := core.NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	g, err := profile.GenerateUniformGroup(c.Schema, 3, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	weights := []float64{2, 0, 1}
	gp, err := consensus.GroupProfileWeighted(g, consensus.PairwiseDis, weights)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := e.Build(gp, query.Default(), core.DefaultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	fx := &walFixture{city: c}
	fx.records = append(fx.records, Record{Kind: RecordGroupCreate, ID: 1, Group: g})
	fx.records = append(fx.records, Record{
		Kind: RecordPackageBuild, ID: 2, GroupID: 1, Method: "pairwise", Weights: weights, Package: tp,
	})

	// Apply one of each operator through a real session, logging each op
	// with a copy of its post-op CI: the session goes on mutating its own.
	sess, err := interact.NewSession(c, tp)
	if err != nil {
		t.Fatal(err)
	}
	logOp := func() {
		ops := sess.Log()
		op := ops[len(ops)-1]
		fx.records = append(fx.records, Record{
			Kind: RecordCustomOp, PackageID: 2, Op: op, After: sess.Package().CIs[op.CIIndex].Clone(),
		})
	}
	if err := sess.Remove(0, 0, sess.Package().CIs[0].Items[0].ID); err != nil {
		t.Fatal(err)
	}
	logOp()
	if _, err := sess.Replace(1, 1, sess.Package().CIs[1].Items[0].ID); err != nil {
		t.Fatal(err)
	}
	logOp()
	if _, err := sess.Generate(2, c.POIs.Bounds()); err != nil {
		t.Fatal(err)
	}
	logOp()

	tp2, err := e.Build(gp, query.Default(), core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	fx.records = append(fx.records, Record{
		Kind: RecordRefine, ID: 3, GroupID: 1, Method: "pairwise", Weights: weights, Package: tp2,
		Source: 2, Strategy: "batch",
	})

	fx.want = &ServerState{
		City:   c.Name,
		NextID: 4,
		Groups: []GroupRecord{{ID: 1, Group: g}},
		Packages: []PackageRecord{
			{ID: 2, GroupID: 1, Method: "pairwise", Weights: weights, Package: sess.Package(), Ops: sess.Log()},
			{ID: 3, GroupID: 1, Method: "pairwise", Weights: weights, Package: tp2},
		},
	}
	return fx
}

// writeWAL appends records to a fresh log under dir and closes it.
func writeWAL(t testing.TB, dir, key string, recs []Record) {
	t.Helper()
	w, err := OpenWAL(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// stateJSON canonicalizes a state for deep comparison: the snapshot
// encoding is deterministic (sorted ids, sorted map keys), so equal JSON
// means equal state.
func stateJSON(t testing.TB, st *ServerState) string {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveServerState(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// streamJSON renders records through the store's one encoder, so a
// decoded stream compares byte-for-byte against the records written.
func streamJSON(t testing.TB, recs []Record) string {
	t.Helper()
	views := make([]walRecordJSON, 0, len(recs))
	for _, r := range recs {
		views = append(views, recordJSON(r))
	}
	out, err := json.Marshal(views)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// writtenJSON renders written records in streamJSON's form, stamped with
// consecutive sequences from first, the way Append stamps them.
func writtenJSON(t testing.TB, first int64, recs []Record) string {
	t.Helper()
	stamped := make([]Record, 0, len(recs))
	for i, r := range recs {
		r.Seq = first + int64(i)
		stamped = append(stamped, r)
	}
	return streamJSON(t, stamped)
}

// replay runs ReplayWAL with a callback that records every record it is
// handed — the store's whole output, now that applying a record is the
// caller's job.
func replay(t testing.TB, dir, key string, city *dataset.City, after int64) ([]Record, *WALReplayInfo) {
	t.Helper()
	var recs []Record
	info, err := ReplayWAL(dir, key, city, after, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, info
}

func TestWALReplayRoundTrip(t *testing.T) {
	fx := makeWALFixture(t)
	dir := t.TempDir()
	writeWAL(t, dir, "wal", fx.records)

	recs, info := replay(t, dir, "wal", fx.city, 0)
	if info.Records != len(fx.records) || info.Truncated != "" || info.LastSeq != int64(len(fx.records)) {
		t.Fatalf("replay info = %+v, want %d clean records", info, len(fx.records))
	}
	if got, want := streamJSON(t, recs), writtenJSON(t, 1, fx.records); got != want {
		t.Fatalf("decoded stream differs:\n%s\nwant:\n%s", got, want)
	}
	// The ops decode in log order — REMOVE, REPLACE, GENERATE — with
	// their POIs resolved against the city.
	var kinds []interact.OpKind
	for _, r := range recs {
		if r.Kind == RecordCustomOp {
			kinds = append(kinds, r.Op.Kind)
			if r.After == nil || r.PackageID != 2 {
				t.Fatalf("customOp decoded as %+v", r)
			}
		}
	}
	if len(kinds) != 3 || kinds[0] != interact.OpRemove || kinds[1] != interact.OpReplace || kinds[2] != interact.OpGenerate {
		t.Fatalf("decoded op kinds = %v", kinds)
	}
	if recs[0].Group == nil || recs[1].Package == nil || recs[1].Method != "pairwise" {
		t.Fatalf("group/package not resolved: %+v %+v", recs[0], recs[1])
	}
}

// TestWALBytesPinned pins the log's byte format, which every existing log
// on disk and every follower's stream depends on. testdata/fixture.wal is
// makeWALFixture's log as an earlier encoder wrote it. Decoding the file
// and appending its records to a fresh log must reproduce it byte for
// byte, so the encoder cannot drop, rename or reorder a field unnoticed.
func TestWALBytesPinned(t *testing.T) {
	golden, err := os.ReadFile("testdata/fixture.wal")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(WALPath(dir, "golden"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, info := replay(t, dir, "golden", city(t), 0)
	if info.Records != 6 || info.Truncated != "" {
		t.Fatalf("testdata/fixture.wal replayed as %+v, want 6 clean records", info)
	}
	writeWAL(t, dir, "again", recs)
	got, err := os.ReadFile(WALPath(dir, "again"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		i := 0
		for i < len(got) && i < len(golden) && got[i] == golden[i] {
			i++
		}
		t.Fatalf("re-encoded log differs from testdata/fixture.wal at byte %d of %d:\ngot:  %q\nwant: %q",
			i, len(golden), got[i:min(i+80, len(got))], golden[i:min(i+80, len(golden))])
	}
}

// TestWALReplayOverSnapshot: the log is a suffix over a snapshot whose
// watermark is after. Replay passes exactly the records above the
// watermark, in order, and LastSeq never falls below the watermark — even
// over an empty log, so the appender continues past the snapshot.
func TestWALReplayOverSnapshot(t *testing.T) {
	fx := makeWALFixture(t)
	dir := t.TempDir()
	writeWAL(t, dir, "wal", fx.records)

	recs, info := replay(t, dir, "wal", fx.city, 1)
	if info.Records != len(fx.records)-1 || info.Skipped != 1 || info.LastSeq != int64(len(fx.records)) {
		t.Fatalf("replay over watermark 1: info %+v", info)
	}
	if got, want := streamJSON(t, recs), writtenJSON(t, 2, fx.records[1:]); got != want {
		t.Fatalf("records above the watermark differ:\n%s\nwant:\n%s", got, want)
	}

	_, info = replay(t, t.TempDir(), "empty", fx.city, 9)
	if info.Records != 0 || info.LastSeq != 9 {
		t.Fatalf("empty log over watermark 9: info %+v", info)
	}
}

// replayPrefix replays a log holding only the first n fixture records —
// the ground truth that torn-tail recovery must land on.
func replayPrefix(t *testing.T, fx *walFixture, n int) string {
	t.Helper()
	dir := t.TempDir()
	writeWAL(t, dir, "prefix", fx.records[:n])
	recs, info := replay(t, dir, "prefix", fx.city, 0)
	if info.Records != n || info.Truncated != "" {
		t.Fatalf("prefix replay: info %+v", info)
	}
	return streamJSON(t, recs)
}

// frameOffsets scans a log file and returns each record's start offset —
// the test's own framing walk, independent of the replayer.
func frameOffsets(t testing.TB, path string) []int64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	off := walHeaderLen
	for off < int64(len(raw)) {
		offs = append(offs, off)
		n := int64(uint32(raw[off]) | uint32(raw[off+1])<<8 | uint32(raw[off+2])<<16 | uint32(raw[off+3])<<24)
		off += walFrameLen + n
	}
	return offs
}

// TestWALTornTailTruncated: cutting the log mid-record must pass exactly
// the surviving prefix, truncate the file at the last valid record, and
// report the cut — and the repaired log must then replay cleanly to the
// same records.
func TestWALTornTailTruncated(t *testing.T) {
	fx := makeWALFixture(t)
	for cut := 1; cut < len(fx.records); cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			writeWAL(t, dir, "wal", fx.records)
			path := WALPath(dir, "wal")
			offs := frameOffsets(t, path)
			// Tear: keep `cut` whole records plus half of the next one.
			tearAt := offs[cut] + walFrameLen + 3
			if err := os.Truncate(path, tearAt); err != nil {
				t.Fatal(err)
			}

			recs, info := replay(t, dir, "wal", fx.city, 0)
			if info.Records != cut || info.Truncated == "" || info.DroppedBytes == 0 {
				t.Fatalf("tear at record %d: info %+v", cut, info)
			}
			if got, want := streamJSON(t, recs), replayPrefix(t, fx, cut); got != want {
				t.Fatalf("torn replay != surviving prefix:\n%s\nwant:\n%s", got, want)
			}
			// The repair truncated the file to the last valid record.
			if fi, err := os.Stat(path); err != nil || fi.Size() != offs[cut] {
				t.Fatalf("file not truncated to %d: %v %v", offs[cut], fi.Size(), err)
			}
			recs2, info2 := replay(t, dir, "wal", fx.city, 0)
			if info2.Truncated != "" || info2.Records != cut {
				t.Fatalf("repaired log not clean: info %+v", info2)
			}
			if streamJSON(t, recs2) != streamJSON(t, recs) {
				t.Fatal("repaired log replays to different records")
			}
		})
	}
}

// TestWALBitFlipTruncated: a flipped byte inside a record's payload fails
// its CRC; recovery keeps the records before it.
func TestWALBitFlipTruncated(t *testing.T) {
	fx := makeWALFixture(t)
	dir := t.TempDir()
	writeWAL(t, dir, "wal", fx.records)
	path := WALPath(dir, "wal")
	offs := frameOffsets(t, path)

	const victim = 2
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[offs[victim]+walFrameLen+5] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, info := replay(t, dir, "wal", fx.city, 0)
	if info.Records != victim || info.Truncated == "" {
		t.Fatalf("bit flip in record %d: info %+v", victim, info)
	}
	if streamJSON(t, recs) != replayPrefix(t, fx, victim) {
		t.Fatal("bit-flip replay != surviving prefix")
	}
}

// TestWALInapplicableRecordTruncated: a record that cannot apply also
// cuts the log — the prefix stays, nothing panics, nothing is fatal. The
// cut comes from either side: apply rejecting a record against its state
// (here: a package for a group that never existed), or DecodeRecord
// rejecting one no state could apply (an unknown POI, an unknown kind, a
// missing field). Records at or below the cut never reach apply twice.
func TestWALInapplicableRecordTruncated(t *testing.T) {
	fx := makeWALFixture(t)
	badGroup := fx.records[1] // packageBuild...
	badGroup.GroupID = 99     // ...for a group that never existed
	unknownPOI := fx.records[2]
	unknownPOI.After = unknownPOI.After.Clone()
	unknownPOI.After.Items = append([]*poi.POI{{ID: 1 << 30}}, unknownPOI.After.Items...)
	unknownKind := fx.records[0]
	unknownKind.Kind = "groupDelete"
	noGroup := fx.records[0]
	noGroup.Group = nil

	for _, tc := range []struct {
		name string
		bad  Record
	}{
		{"unknownGroup", badGroup},
		{"unknownPOI", unknownPOI},
		{"unknownKind", unknownKind},
		{"missingField", noGroup},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeWAL(t, dir, "wal", []Record{fx.records[0], tc.bad, fx.records[1]})
			var seen []Record
			info, err := ReplayWAL(dir, "wal", fx.city, 0, func(r Record) error {
				if r.GroupID == 99 {
					return errors.New("unknown group 99")
				}
				seen = append(seen, r)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if info.Records != 1 || info.Truncated == "" || info.LastSeq != 1 {
				t.Fatalf("info %+v", info)
			}
			if len(seen) != 1 || seen[0].Kind != RecordGroupCreate {
				t.Fatalf("apply saw %d records past the cut", len(seen)-1)
			}
			if _, info2 := replay(t, dir, "wal", fx.city, 0); info2.Truncated != "" || info2.Records != 1 {
				t.Fatalf("repaired log not clean: %+v", info2)
			}
		})
	}
}

// TestWALBadHeaderQuarantined: a log without the magic header cannot be
// trusted at all; it is moved aside, never silently treated as empty.
func TestWALBadHeaderQuarantined(t *testing.T) {
	fx := makeWALFixture(t)
	dir := t.TempDir()
	path := WALPath(dir, "wal")
	if err := os.WriteFile(path, []byte("not a wal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, info := replay(t, dir, "wal", fx.city, 0)
	if info.Truncated == "" || len(recs) != 0 {
		t.Fatalf("info %+v, %d records", info, len(recs))
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("bad log not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("bad log still in place: %v", err)
	}
}

// TestWALResetAfterCompaction: Reset drops the log back to its header —
// what a follower does once a primary's compaction snapshot is installed
// — and the appender keeps working after it.
func TestWALResetAfterCompaction(t *testing.T) {
	fx := makeWALFixture(t)
	dir := t.TempDir()
	w, err := OpenWAL(dir, "wal")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, r := range fx.records[:2] {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.Records != 2 || st.Bytes == 0 || st.Fsyncs == 0 {
		t.Fatalf("pre-reset stats %+v", st)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Records != 0 || st.Bytes != 0 {
		t.Fatalf("post-reset stats %+v", st)
	}
	// Appends after the reset are the new log suffix.
	if _, err := w.Append(fx.records[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, info := replay(t, dir, "wal", fx.city, 0); info.Records != 1 || info.Truncated != "" {
		t.Fatalf("post-reset replay info %+v", info)
	}
}

// TestWALConcurrentAppends: concurrent durable appends must all commit
// intact (writes serialize, fsyncs group-commit), and the group commit
// must actually batch — far fewer fsyncs than appends under contention is
// the design goal, but at minimum every record must survive replay.
func TestWALConcurrentAppends(t *testing.T) {
	fx := makeWALFixture(t)
	dir := t.TempDir()
	w, err := OpenWAL(dir, "wal")
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := fx.want.Groups[0].Group
			if _, err := w.Append(Record{Kind: RecordGroupCreate, ID: 10 + i, Group: g}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if st := w.Stats(); st.Records != n || st.Fsyncs == 0 {
		t.Fatalf("stats after concurrent appends: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, info := replay(t, dir, "wal", fx.city, 0)
	if info.Records != n || info.Truncated != "" {
		t.Fatalf("replay info %+v", info)
	}
	// Sequences follow the append order; every id arrives exactly once.
	ids := make([]int, 0, n)
	for i, r := range recs {
		if r.Seq != int64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		ids = append(ids, r.ID)
	}
	sort.Ints(ids)
	for i, id := range ids {
		if id != 10+i {
			t.Fatalf("replayed ids %v, want 10..%d", ids, 10+n-1)
		}
	}
}

// TestWALCompactionCrashIdempotent: a compaction can crash after its
// snapshot lands but before the covered log records are removed. Replay
// must skip records at or below the snapshot's sequence watermark —
// without the skip, customOp records re-append to the package's op log
// and /refine computes from a doubled history.
func TestWALCompactionCrashIdempotent(t *testing.T) {
	fx := makeWALFixture(t)
	dir := t.TempDir()
	writeWAL(t, dir, "wal", fx.records)

	// The compaction's snapshot covers everything the log holds: its
	// watermark is the last record's sequence.
	_, info := replay(t, dir, "wal", fx.city, 0)
	if info.Records != len(fx.records) {
		t.Fatalf("info %+v", info)
	}
	// "Crash": the log was never trimmed. Recovery = snapshot + full
	// log; every record must be skipped, none passed on again.
	recs, info2 := replay(t, dir, "wal", fx.city, info.LastSeq)
	if info2.Records != 0 || info2.Skipped != len(fx.records) || info2.Truncated != "" || len(recs) != 0 {
		t.Fatalf("post-crash replay info %+v (%d records passed), want all %d records skipped",
			info2, len(recs), len(fx.records))
	}
	// New appends must continue above the watermark, or they would be
	// invisible to the next replay.
	w, err := OpenWAL(dir, "wal")
	if err != nil {
		t.Fatal(err)
	}
	w.Seed(info2.CurrentRecords, info2.LastSeq)
	if got, want := w.LastSeq(), info.LastSeq; got != want {
		t.Fatalf("seeded LastSeq = %d, want %d", got, want)
	}
	w.Close()
}

// TestWALTrim: Trim replaces the log with its header plus a byte-for-byte
// copy of the records appended after the mark — here, between the mark
// and the trim — and appends continue in the new file: the appender's
// counters restart from the copy, and the log ends exactly as the
// fixture's untrimmed log does. Nothing is left beside the log.
func TestWALTrim(t *testing.T) {
	fx := makeWALFixture(t)
	dir := t.TempDir()
	w, err := OpenWAL(dir, "wal")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fx.records[:3] { // group, package, first op
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	m := w.Mark()
	if m.Seq != 3 {
		t.Fatalf("mark at seq %d, want 3", m.Seq)
	}
	for _, r := range fx.records[3:5] { // two ops between the mark and the trim
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Trim(m); err != nil {
		t.Fatal(err)
	}
	golden := readTestdata(t, "fixture.wal")
	offs := frameOffsets(t, "testdata/fixture.wal")
	want := append(walMagic[:], golden[offs[3]:offs[5]]...)
	got, err := os.ReadFile(WALPath(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trimmed log holds %d bytes, want the header plus records 4-5 (%d bytes)", len(got), len(want))
	}
	if st := w.Stats(); st.Records != 2 || st.Bytes != int64(len(want))-walHeaderLen {
		t.Fatalf("stats after the trim %+v, want 2 records in %d bytes", st, len(want)-int(walHeaderLen))
	}
	if seq, err := w.Append(fx.records[5]); err != nil || seq != 6 {
		t.Fatalf("append after the trim: seq %d, err %v; want seq 6", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err = os.ReadFile(WALPath(dir, "wal")); err != nil || !bytes.Equal(got, append(walMagic[:], golden[offs[3]:]...)) {
		t.Fatalf("log after the trim and an append differs from the fixture's records 4-6 (err %v)", err)
	}
	recs, info := replay(t, dir, "wal", fx.city, m.Seq)
	if info.Records != 3 || info.Skipped != 0 || info.Truncated != "" {
		t.Fatalf("replay over the mark: info %+v", info)
	}
	if streamJSON(t, recs) != writtenJSON(t, 4, fx.records[3:]) {
		t.Fatal("trimmed log replays differently from records 4-6")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("state directory holds %v (err %v), want the log alone", entries, err)
	}
}

// TestWALTrimConcurrentAppends: trims run while appends keep arriving, as
// in a background compaction. Every record after the last trim's mark
// survives — an append written before a trim took the log's locks is in
// its copy, a later one in the new file — and the log replays as a dense
// run with the appender's record count matching it.
func TestWALTrimConcurrentAppends(t *testing.T) {
	fx := makeWALFixture(t)
	dir := t.TempDir()
	w, err := OpenWAL(dir, "wal")
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 30
	g := fx.want.Groups[0].Group
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				if _, err := w.Append(Record{Kind: RecordGroupCreate, ID: 10 + i*perWriter + j, Group: g}); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	// Trim until half the records are in, so the last trim too runs while
	// appends are in flight and the records after its mark are many.
	const total = writers * perWriter
	var mark WALMark
	for w.LastSeq() < total/2 {
		mark = w.Mark()
		if err := w.Trim(mark); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
	if st := w.Stats(); st.Records != total-mark.Seq {
		t.Fatalf("appender counts %d records after the last mark (seq %d), want %d", st.Records, mark.Seq, total-mark.Seq)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, info := replay(t, dir, "wal", fx.city, mark.Seq)
	if info.Truncated != "" || info.Skipped != 0 || info.LastSeq != total || int64(len(recs)) != total-mark.Seq {
		t.Fatalf("replay over the last mark (seq %d): info %+v, %d records", mark.Seq, info, len(recs))
	}
	for i, r := range recs {
		if r.Seq != mark.Seq+1+int64(i) {
			t.Fatalf("record %d after the mark has seq %d", i, r.Seq)
		}
	}
}

// writeLegacy lays out an earlier version's interrupted compaction under
// dir as key "wal": a sealed segment beside the log that continues it.
func writeLegacy(t *testing.T, dir string, segment, log []byte) {
	t.Helper()
	if err := os.WriteFile(PendingWALPath(dir, "wal"), segment, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(WALPath(dir, "wal"), log, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readTestdata(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWALFoldsLegacySegment: earlier versions' compaction sealed the log
// as <key>.wal.pending (Rotate) and started a fresh log continuing it; one
// that stopped before its snapshot landed left both files.
// testdata/rotated.wal.pending and rotated.wal are that layout, written by
// the real Rotate over the fixture's records: the group, the package and
// the first op, then the other two ops and the refine. Replay folds the
// segment into the log and returns the segment's records, then the log's,
// skipping what a snapshot watermark covers; the folded log is the
// fixture's one-file log byte for byte, no segment is left, and a second
// load changes nothing. The fold writes neither file in place — hard
// links to both keep their bytes — so a fold whose write stopped partway
// leaves the two files as they were: a failed write removes its temp
// file, a cut one leaves it (here holding the segment and part of the
// log's frames, ending mid-frame), and the retry replays all six
// records. A fold interrupted after the temp file's rename — the segment
// already holds both files' frames and the log still exists — folds
// again and replays the same records: replay cuts the re-appended ones
// as sequence regressions.
func TestWALFoldsLegacySegment(t *testing.T) {
	fx := makeWALFixture(t)
	segment, log := readTestdata(t, "rotated.wal.pending"), readTestdata(t, "rotated.wal")
	golden := readTestdata(t, "fixture.wal")
	folded := append(append([]byte(nil), segment...), log[walHeaderLen:]...)
	for _, tc := range []struct {
		name    string
		segment []byte
		tmp     []byte // a fold's temp file left beside the two files
		cut     bool   // replay cuts the re-appended records
	}{
		{"rotated", segment, nil, false},
		{"foldCutMidWrite", segment, folded[:len(segment)+(len(log)-int(walHeaderLen))/2], false},
		{"foldInterrupted", folded, nil, true},
	} {
		for _, after := range []int64{0, 3} {
			t.Run(fmt.Sprintf("%s/after=%d", tc.name, after), func(t *testing.T) {
				dir := t.TempDir()
				writeLegacy(t, dir, tc.segment, log)
				if tc.tmp != nil {
					if err := os.WriteFile(filepath.Join(dir, "wal.wal.pending.1.tmp"), tc.tmp, 0o600); err != nil {
						t.Fatal(err)
					}
				}
				links := []struct {
					src  string
					want []byte
				}{{PendingWALPath(dir, "wal"), tc.segment}, {WALPath(dir, "wal"), log}}
				for _, l := range links {
					if err := os.Link(l.src, l.src+".link"); err != nil {
						t.Fatal(err)
					}
				}
				recs, info := replay(t, dir, "wal", fx.city, after)
				if info.Records != 6-int(after) || info.Skipped != int(after) || info.CurrentRecords != 6 ||
					(info.Truncated != "") != tc.cut {
					t.Fatalf("fold replay info %+v", info)
				}
				if got, want := streamJSON(t, recs), writtenJSON(t, after+1, fx.records[after:]); got != want {
					t.Fatalf("fold replayed\n%s\nwant\n%s", got, want)
				}
				if _, err := os.Stat(PendingWALPath(dir, "wal")); !os.IsNotExist(err) {
					t.Fatalf("segment left behind (err %v)", err)
				}
				if folded, err := os.ReadFile(WALPath(dir, "wal")); err != nil || !bytes.Equal(folded, golden) {
					t.Fatalf("folded log differs from testdata/fixture.wal (err %v)", err)
				}
				for _, l := range links {
					if got, err := os.ReadFile(l.src + ".link"); err != nil || !bytes.Equal(got, l.want) {
						t.Fatalf("the fold wrote %s in place (err %v)", filepath.Base(l.src), err)
					}
				}
				recs2, info2 := replay(t, dir, "wal", fx.city, after)
				if info2.Truncated != "" || info2.Records != info.Records || streamJSON(t, recs2) != streamJSON(t, recs) {
					t.Fatalf("second load differs: %+v", info2)
				}
			})
		}
	}
}

// TestWALAppendFramesBatch: a replicated batch lands with one write and
// one group-commit fsync — not one per frame — skips frames the log
// already holds, and replays identically to the source records.
func TestWALAppendFramesBatch(t *testing.T) {
	fx := makeWALFixture(t)
	srcDir := t.TempDir()
	writeWAL(t, srcDir, "wal", fx.records)
	frames, _, err := ReadWALFramesAt(WALPath(srcDir, "wal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(fx.records) {
		t.Fatalf("collected %d frames, want %d", len(frames), len(fx.records))
	}

	dir := t.TempDir()
	w, err := OpenWAL(dir, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendFrames(frames); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Records != int64(len(frames)) {
		t.Fatalf("records = %d, want %d", st.Records, len(frames))
	}
	if st.Fsyncs != 1 {
		t.Fatalf("batch append fsynced %d times, want 1", st.Fsyncs)
	}
	// Re-sending the whole batch is a no-op (at-least-once delivery): the
	// durable prefix is skipped, nothing appends, nothing fsyncs.
	if err := w.AppendFrames(frames); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats(); got.Records != int64(len(frames)) || got.Fsyncs != 1 {
		t.Fatalf("idempotent re-send changed the log: %+v", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, info := replay(t, dir, "wal", fx.city, 0)
	if info.Records != len(fx.records) || info.Truncated != "" {
		t.Fatalf("replay info %+v", info)
	}
	if streamJSON(t, recs) != replayPrefix(t, fx, len(fx.records)) {
		t.Fatal("batch-appended log replays differently from the source records")
	}
}

// TestWALAppendFramesRefusesGap: a run that does not continue the log —
// its first new frame is past LastSeq()+1, or it skips a sequence inside
// — is refused whole, naming both sequences, and leaves the log as it
// was. Appending it would report a head whose records a restart cannot
// replay. Frames at or below the head are still skipped.
func TestWALAppendFramesRefusesGap(t *testing.T) {
	fx := makeWALFixture(t)
	srcDir := t.TempDir()
	writeWAL(t, srcDir, "wal", fx.records)
	frames, _, err := ReadWALFramesAt(WALPath(srcDir, "wal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := OpenWAL(dir, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendFrames(frames[:2]); err != nil { // seqs 1-2
		t.Fatal(err)
	}
	before := w.Stats()
	for _, run := range [][]WALFrame{
		frames[4:6],                       // 5-6: starts past the head
		{frames[2], frames[4]},            // 3, 5: a hole inside the run
		{frames[0], frames[1], frames[3]}, // re-sent 1-2, then 4
	} {
		err := w.AppendFrames(run)
		if err == nil {
			t.Fatalf("run starting at seq %d appended over a hole", run[0].Seq)
		}
		if !strings.Contains(err.Error(), "seq 2") && !strings.Contains(err.Error(), "seq 3") {
			t.Fatalf("error does not name the log head: %v", err)
		}
		if got := w.Stats(); got != before || w.LastSeq() != 2 {
			t.Fatalf("refused run changed the log: %+v -> %+v, head %d", before, got, w.LastSeq())
		}
	}
	// The log continues from its head once the missing frames arrive.
	if err := w.AppendFrames(frames[1:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, info := replay(t, dir, "wal", fx.city, 0)
	if info.Truncated != "" || streamJSON(t, recs) != replayPrefix(t, fx, len(fx.records)) {
		t.Fatalf("log after refused gaps replays differently: %+v", info)
	}
}

// TestWALFoldTornSegment: when the legacy segment's last record is torn
// (testdata/rotated_torn.wal.pending, the first op cut short), the log
// continues from a sequence that no longer exists. The fold appends the
// log's frames after the torn one, so replay cuts there: the surviving
// prefix is the group and the package, not records 1, 2, 4, 5, 6 — an op
// history with a hole in the middle. The repair is a fixpoint, and no
// segment is left.
func TestWALFoldTornSegment(t *testing.T) {
	fx := makeWALFixture(t)
	dir := t.TempDir()
	writeLegacy(t, dir, readTestdata(t, "rotated_torn.wal.pending"), readTestdata(t, "rotated_torn.wal"))
	recs, info := replay(t, dir, "wal", fx.city, 0)
	if info.Records != 2 || info.Truncated == "" {
		t.Fatalf("info %+v, want 2 records and a reported cut", info)
	}
	if streamJSON(t, recs) != replayPrefix(t, fx, 2) {
		t.Fatal("torn-segment replay != surviving prefix")
	}
	recs2, info2 := replay(t, dir, "wal", fx.city, 0)
	if info2.Truncated != "" || info2.Records != 2 {
		t.Fatalf("repaired replay info %+v", info2)
	}
	if streamJSON(t, recs2) != streamJSON(t, recs) {
		t.Fatal("repaired torn-segment replay diverged")
	}
	if _, err := os.Stat(PendingWALPath(dir, "wal")); !os.IsNotExist(err) {
		t.Fatalf("segment left behind (err %v)", err)
	}
}
