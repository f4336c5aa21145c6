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
func injectFault(w *WAL, at int, kind faultKind) {
	f, ok := w.f.(*os.File)
	if !ok {
		f = w.f.(*faultFile).File
	}
	w.f = &faultFile{File: f, at: at, kind: kind}
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
// covered, so a later success proves nothing about them. Rotate and
// Close report the failure too; Reset, which follows a compaction that
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
	if err := w.Rotate(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("rotate after a failed fsync = %v, want the latched EIO", err)
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
// fsync error. No append may succeed after a failed fsync, Close must
// report a failure the log latched, and ReplayWAL must return exactly the
// acknowledged records in order, plus at most the one record whose fsync
// failed — nothing acknowledged lost, nothing refused invented.
func FuzzWALFaults(f *testing.F) {
	fx := makeWALFixture(f)
	all := make([]byte, len(fx.records))
	for i := range all {
		all[i] = byte(i)
	}
	for at := range len(fx.records) + 1 {
		for kind := range numFaultKinds {
			f.Add(all, uint8(at), uint8(kind))
		}
	}
	f.Fuzz(func(t *testing.T, picks []byte, at, kind uint8) {
		if len(picks) > 4*len(fx.records) {
			picks = picks[:4*len(fx.records)]
		}
		dir := t.TempDir()
		w, err := OpenWAL(dir, "wal")
		if err != nil {
			t.Fatal(err)
		}
		fault := faultKind(kind % uint8(numFaultKinds))
		injectFault(w, int(at), fault)
		var acked []Record
		var unsynced *Record // the record whose fsync failed
		for i, p := range picks {
			rec := fx.records[int(p)%len(fx.records)]
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
		latched := int(at) < len(picks) && (fault == faultSync || fault == faultTruncate)
		if err := w.Close(); latched && !errors.Is(err, syscall.EIO) {
			t.Fatalf("Close after a latched %d fault = %v, want EIO", fault, err)
		} else if !latched && err != nil {
			t.Fatalf("Close = %v", err)
		}

		recs, info := replay(t, dir, "wal", fx.city, 0)
		got, want := streamJSON(t, recs), streamJSON(t, acked)
		if got == want {
			return
		}
		if unsynced != nil && got == streamJSON(t, append(acked, *unsynced)) {
			return
		}
		t.Fatalf("fault %d at write %d: replay (%+v) passed\n%s\nwant the %d acknowledged records\n%s",
			fault, at, info, got, len(acked), want)
	})
}
