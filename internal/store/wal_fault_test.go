package store

import (
	"errors"
	"os"
	"syscall"
	"testing"
)

// faultKind names the one fault a faultFile injects.
type faultKind uint8

const (
	faultWrite      faultKind = iota // the write lands nothing and fails
	faultShortWrite                  // half the bytes land, the write fails, truncating them succeeds
	faultTruncate                    // half the bytes land, the write fails, and so does the truncate
	faultSync                        // the write lands; the fsync that follows fails
	numFaultKinds
)

// faultFile is a log file with one fault armed: the Write call numbered
// at (from 0) fails as kind says, and so, for faultTruncate and
// faultSync, does the one Truncate or Sync that follows it. Every other
// call reaches the real file, so what the log wrote is on disk for
// ReplayWAL to judge.
type faultFile struct {
	*os.File
	at     int
	kind   faultKind
	writes int

	failTruncate, failSync bool
}

// injectFault arms a fault on a log's file; at counts writes from now.
func injectFault(w *WAL, at int, kind faultKind) *faultFile {
	f, ok := w.f.(*os.File)
	if !ok {
		f = w.f.(*faultFile).File
	}
	ff := &faultFile{File: f, at: at, kind: kind}
	w.f = ff
	return ff
}

// rearm moves a fault onto the file a Trim reopened, keeping its place in
// the count of writes: the trim replaced the file the fault was armed on.
func rearm(w *WAL, ff *faultFile) {
	ff.File = w.f.(*os.File)
	w.f = ff
}

func (f *faultFile) Write(p []byte) (int, error) {
	n := f.writes
	f.writes++
	if n != f.at {
		return f.File.Write(p)
	}
	switch f.kind {
	case faultWrite:
		return 0, syscall.EIO
	case faultShortWrite, faultTruncate:
		f.failTruncate = f.kind == faultTruncate
		wrote, _ := f.File.Write(p[:len(p)/2])
		return wrote, syscall.EIO
	default:
		f.failSync = true
		return f.File.Write(p)
	}
}

func (f *faultFile) Truncate(size int64) error {
	if f.failTruncate {
		f.failTruncate = false
		return syscall.EIO
	}
	return f.File.Truncate(size)
}

func (f *faultFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return syscall.EIO
	}
	return f.File.Sync()
}

// TestWALFsyncFailureLatches: one fsync fails with EIO. Its append fails,
// and so does every later append although the file's next fsync would
// succeed — Linux may already have dropped the pages the failed fsync
// covered, so a later success proves nothing about them. Trim and Close
// report the failure too; Reset, which follows a snapshot handoff that
// rewrote the state, clears it.
func TestWALFsyncFailureLatches(t *testing.T) {
	fx := makeWALFixture(t)
	dir := t.TempDir()
	w, err := OpenWAL(dir, "wal")
	if err != nil {
		t.Fatal(err)
	}
	injectFault(w, 1, faultSync)
	if _, err := w.Append(fx.records[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(fx.records[1]); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append whose fsync failed = %v, want EIO", err)
	}
	if _, err := w.Append(fx.records[2]); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after a failed fsync = %v, want the latched EIO", err)
	}
	if err := w.AppendFrames([]WALFrame{{Seq: 3, Payload: []byte("{}")}}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("frame append after a failed fsync = %v, want the latched EIO", err)
	}
	if err := w.Trim(w.Mark()); !errors.Is(err, syscall.EIO) {
		t.Fatalf("trim after a failed fsync = %v, want the latched EIO", err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(fx.records[0]); err != nil {
		t.Fatalf("append after Reset = %v", err)
	}
	injectFault(w, 0, faultSync)
	if _, err := w.Append(fx.records[1]); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append whose fsync failed = %v, want EIO", err)
	}
	if err := w.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close after a failed fsync = %v, want the latched EIO", err)
	}
}

// FuzzWALFaults appends fixture records, chosen and ordered by the input,
// to a log whose file fails once, at a fuzzed write, in a fuzzed way: a
// write error, a short write, a short write whose truncate fails, or an
// fsync error. The input also picks where among the appends a compaction
// takes its Mark and where it runs its Trim; the fault stays armed across
// the trim, re-armed on the file the trim reopens. No append may succeed
// after a failed fsync, a trim after a latched failure must return it,
// Close must report a failure the log latched, and replay over the mark's
// watermark must return exactly the acknowledged records after the mark,
// in order, plus at most the one record whose fsync failed — nothing
// acknowledged lost, nothing refused invented, whether or not the trim
// ran.
func FuzzWALFaults(f *testing.F) {
	fx := makeWALFixture(f)
	all := make([]byte, len(fx.records))
	for i := range all {
		all[i] = byte(i)
	}
	for at := range len(fx.records) + 1 {
		for kind := range numFaultKinds {
			for _, trim := range [][2]uint8{{2, 4}, {3, 3}, {0, 6}, {9, 9}} {
				f.Add(all, uint8(at), uint8(kind), trim[0], trim[1])
			}
		}
	}
	f.Fuzz(func(t *testing.T, picks []byte, at, kind, markAt, trimAt uint8) {
		if len(picks) > 4*len(fx.records) {
			picks = picks[:4*len(fx.records)]
		}
		dir := t.TempDir()
		w, err := OpenWAL(dir, "wal")
		if err != nil {
			t.Fatal(err)
		}
		fault := faultKind(kind % uint8(numFaultKinds))
		ff := injectFault(w, int(at), fault)
		latches := fault == faultSync || fault == faultTruncate
		var mark WALMark
		var acked []Record
		var unsynced *Record // the record whose fsync failed
		for i := 0; i <= len(picks); i++ {
			if i == int(markAt) {
				mark = w.Mark()
			}
			if i == int(trimAt) && trimAt >= markAt {
				latchedNow := latches && int(at) < i
				switch err := w.Trim(mark); {
				case latchedNow && !errors.Is(err, syscall.EIO):
					t.Fatalf("trim after a latched %d fault = %v, want EIO", fault, err)
				case !latchedNow && err != nil:
					t.Fatalf("trim = %v", err)
				case err == nil:
					rearm(w, ff)
				}
			}
			if i == len(picks) {
				break
			}
			rec := fx.records[int(picks[i])%len(fx.records)]
			seq, err := w.Append(rec)
			if err == nil {
				if unsynced != nil {
					t.Fatalf("append %d succeeded after a failed fsync", i)
				}
				rec.Seq = seq
				acked = append(acked, rec)
				continue
			}
			if i == int(at) && fault == faultSync {
				rec.Seq = int64(len(acked)) + 1
				unsynced = &rec
			}
		}
		latched := int(at) < len(picks) && latches
		if err := w.Close(); latched && !errors.Is(err, syscall.EIO) {
			t.Fatalf("Close after a latched %d fault = %v, want EIO", fault, err)
		} else if !latched && err != nil {
			t.Fatalf("Close = %v", err)
		}

		var want []Record
		for _, rec := range acked {
			if rec.Seq > mark.Seq {
				want = append(want, rec)
			}
		}
		recs, info := replay(t, dir, "wal", fx.city, mark.Seq)
		got := streamJSON(t, recs)
		if got == streamJSON(t, want) {
			return
		}
		if unsynced != nil && unsynced.Seq > mark.Seq && got == streamJSON(t, append(want, *unsynced)) {
			return
		}
		t.Fatalf("fault %d at write %d, mark at %d (seq %d), trim at %d: replay (%+v) passed\n%s\nwant the %d acknowledged records after the mark\n%s",
			fault, at, markAt, mark.Seq, trimAt, info, got, len(want), streamJSON(t, want))
	})
}
