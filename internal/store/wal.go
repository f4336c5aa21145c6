package store

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"grouptravel/internal/ci"
	"grouptravel/internal/core"
	"grouptravel/internal/dataset"
	"grouptravel/internal/interact"
	"grouptravel/internal/profile"
	"grouptravel/internal/telemetry"
)

// This file is the write-ahead half of city persistence. A city's durable
// state is one snapshot plus one log file: WriteSnapshot (state.go)
// captures the full state at compaction time, and between compactions
// every mutation appends exactly one typed record here, so mutation cost
// is O(1 record) instead of O(city state). A compaction marks the log
// (Mark), writes the snapshot covering the mark, and only then trims the
// records up to the mark from the log (Trim). This package owns the file:
// framing, checksums, sequence order and repair. What a record does to a
// city's state belongs to the caller: ReplayWAL decodes each record
// (DecodeRecord) and hands it to the caller's apply function, the same
// one a replication follower runs on shipped frames. A torn tail (partial
// frame, CRC mismatch, or a record the caller cannot apply) is truncated
// at the last valid record rather than bricking the city. The record
// stream is also the replication hook: a follower can tail frames, which
// it could never do with atomic renames.
//
// # On-disk format
//
//	<8-byte magic "GTWALv1\n">
//	repeated records:
//	  <uint32 LE payload length> <uint32 LE CRC32-Castagnoli(payload)> <payload>
//
// Payloads are JSON (walRecordJSON) — self-describing and debuggable with
// standard tools, while the binary framing gives cheap, reliable tear
// detection. Record ordering is the commit order; ids inside records are
// the server's allocations, so replay never re-allocates.

// walMagic versions the file; a reader rejecting it treats the whole log
// as corrupt (quarantine), never as silently empty.
var walMagic = [8]byte{'G', 'T', 'W', 'A', 'L', 'v', '1', '\n'}

const walHeaderLen = int64(len(walMagic))

// walFrameLen is the per-record framing overhead: length + CRC.
const walFrameLen = 8

// maxWALRecord bounds one record's payload so a torn or hostile length
// prefix cannot force a huge allocation during replay.
const maxWALRecord = 16 << 20

// walCRC is CRC32-Castagnoli — hardware-accelerated on amd64/arm64.
var walCRC = crc32.MakeTable(crc32.Castagnoli)

// Record kinds, as they appear in Record.Kind and in the payload's "op"
// field. Each mirrors one server mutation.
const (
	RecordGroupCreate  = "groupCreate"  // a group registered
	RecordPackageBuild = "packageBuild" // a package built for a group
	RecordCustomOp     = "customOp"     // one §3.3 customization op applied
	RecordRefine       = "refine"       // a package rebuilt from a refined profile
)

// walRecordJSON is the on-disk payload of one record. Exactly the fields
// for its kind are set; POIs are referenced by id like every store format.
type walRecordJSON struct {
	Op string `json:"op"`

	// Seq is the record's log sequence number, stamped by Append in
	// commit order and strictly increasing across compactions. A snapshot
	// records the highest Seq it folds in (ServerState.WALSeq), so replay
	// skips records the snapshot already contains — without it, a crash
	// between a compaction's snapshot write and its trim would
	// double-apply customOp records (doubling /refine's op log).
	Seq int64 `json:"seq,omitempty"`

	// groupCreate / packageBuild / refine: the allocated id.
	ID int `json:"id,omitempty"`

	// groupCreate.
	Group *groupJSON `json:"group,omitempty"`

	// packageBuild / refine. Weights are the per-member consensus
	// weights of a weighted build; a refined package inherits its
	// source's.
	GroupID int          `json:"groupId,omitempty"`
	Method  string       `json:"method,omitempty"`
	Weights []float64    `json:"weights,omitempty"`
	Package *packageJSON `json:"package,omitempty"`

	// refine provenance (informational; replay treats refine as a build).
	Source   int    `json:"source,omitempty"`
	Strategy string `json:"strategy,omitempty"`

	// customOp: the logged op plus the affected CI's post-op state. The
	// CI state makes replay exact and deterministic without re-running
	// operator logic (REPLACE's nearest-neighbor pick and GENERATE's CI
	// build depend on code, not the log).
	PackageID int     `json:"packageId,omitempty"`
	Change    *opJSON `json:"change,omitempty"`
	After     *ciJSON `json:"after,omitempty"`
}

// Record is one log record: what a mutation hands Append, and what
// DecodeRecord hands back, resolved against its city — the fields its
// kind needs are present and every POI id names a POI of the city.
// Whether it applies — the id is unused, the group or package exists, the
// member and CI index fit, the consensus name is known — depends on the
// state it lands on, so the consumer checks that. A record holds pointers
// into live state (the group, the package, the post-op CI): the caller
// keeps them unchanged until Append returns.
type Record struct {
	Kind string
	Seq  int64 // stamped by Append; ignored on the way in

	// groupCreate / packageBuild / refine: the allocated id.
	ID int

	// groupCreate.
	Group *profile.Group

	// packageBuild / refine.
	GroupID int
	Method  string
	Weights []float64 // nil: unweighted
	Package *core.TravelPackage

	// refine provenance: the source package and the refinement strategy.
	// Informational; replay treats refine as a build.
	Source   int
	Strategy string

	// customOp: the logged op and the affected CI's post-op state.
	PackageID int
	Op        interact.Op
	After     *ci.CI
}

// recordJSON is the one record encoder; POIs are referenced by id.
func recordJSON(r Record) walRecordJSON {
	v := walRecordJSON{
		Op: r.Kind, Seq: r.Seq, ID: r.ID, GroupID: r.GroupID, Method: r.Method, Weights: r.Weights,
		Source: r.Source, Strategy: r.Strategy, PackageID: r.PackageID,
	}
	if r.Group != nil {
		gj := groupToJSON(r.Group)
		v.Group = &gj
	}
	if r.Package != nil {
		pj := packageToJSON(r.Package)
		v.Package = &pj
	}
	if r.Kind == RecordCustomOp {
		oj := opsToJSON([]interact.Op{r.Op})[0]
		v.Change = &oj
	}
	if r.After != nil {
		cj := ciToJSON(r.After)
		v.After = &cj
	}
	return v
}

// DecodeRecord decodes one frame payload and resolves it against the city.
// It is stateless: an error means the record cannot mean anything in this
// city, whatever state it lands on.
func DecodeRecord(payload []byte, city *dataset.City) (Record, error) {
	rec, err := parseRecord(payload)
	if err != nil {
		return Record{}, err
	}
	return resolveRecord(rec, city)
}

func parseRecord(payload []byte) (walRecordJSON, error) {
	var rec walRecordJSON
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("undecodable record: %v", err)
	}
	return rec, nil
}

func resolveRecord(rec walRecordJSON, city *dataset.City) (Record, error) {
	out := Record{
		Kind: rec.Op, Seq: rec.Seq, ID: rec.ID, GroupID: rec.GroupID, Method: rec.Method, Weights: rec.Weights,
		Source: rec.Source, Strategy: rec.Strategy, PackageID: rec.PackageID,
	}
	var err error
	switch rec.Op {
	case RecordGroupCreate:
		if rec.Group == nil {
			return Record{}, fmt.Errorf("groupCreate without group")
		}
		out.Group, err = groupFromJSON(*rec.Group, city.Schema)
	case RecordPackageBuild, RecordRefine:
		if rec.Package == nil {
			return Record{}, fmt.Errorf("%s without package", rec.Op)
		}
		out.Package, err = packageFromJSON(*rec.Package, city)
	case RecordCustomOp:
		if rec.Change == nil || rec.After == nil {
			return Record{}, fmt.Errorf("customOp without change/after")
		}
		if out.Op, err = opFromJSON(*rec.Change, city); err == nil {
			out.After, err = ciFromJSON(*rec.After, city)
		}
	default:
		return Record{}, fmt.Errorf("unknown record kind %q", rec.Op)
	}
	if err != nil {
		return Record{}, err
	}
	return out, nil
}

// WALPath is the canonical log location for a city key inside a state
// directory (alongside SnapshotPath).
func WALPath(dir, key string) string {
	return filepath.Join(dir, key+".wal")
}

// PendingWALPath is where earlier versions' compaction sealed the log
// while its snapshot was written. Nothing writes one now; ReplayWAL folds
// a leftover segment into the log (foldPendingWAL).
func PendingWALPath(dir, key string) string {
	return WALPath(dir, key) + ".pending"
}

// --- sync policy ---

// WALSyncMode names when appends reach stable storage. The log has one
// durability rule, WALSyncAlways.
//
// Deprecated: the rule is not configurable; the type remains for callers
// that name it.
type WALSyncMode int

// WALSyncAlways fsyncs every append before it returns (group-committed:
// one fsync covers every append that completed before it). Survives power
// loss.
const WALSyncAlways WALSyncMode = 0

// WALSyncPolicy describes the log's durability rule. Its only value is
// the zero value, WALSyncAlways.
//
// Deprecated: the rule is not configurable; the type remains for callers
// that name it.
type WALSyncPolicy struct {
	Mode WALSyncMode
}

// String names the rule.
func (WALSyncPolicy) String() string { return "always" }

// --- appender ---

// WALStats is a point-in-time view of an appender for health reporting
// and compaction thresholds. Records/Bytes count what the log file holds
// (the records after the last trim's mark, or since the last Reset), so
// they are exactly the replay debt a restart would pay.
type WALStats struct {
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"` // log bytes past the header
	Fsyncs  int64 `json:"fsyncs"`
}

// walFile is the log file as the appender uses it. *os.File satisfies
// it; tests substitute one that fails on cue.
type walFile interface {
	Write(p []byte) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// WAL is a per-city append-only log. Appends from concurrent mutations
// serialize on an internal mutex for the write itself; fsyncs group-commit
// — while one fsync is in flight, later appenders queue on the sync mutex
// and discover their bytes were already covered, so n concurrent durable
// appends cost far fewer than n fsyncs.
type WAL struct {
	path string

	// mu serializes file writes, truncation, trims and close.
	// size/records are read by Stats under mu; size is additionally
	// atomic so syncTo can read it without taking mu. nextSeq is the
	// next record's log sequence number — monotonic across Reset and
	// Trim, seeded from recovery.
	mu      sync.Mutex
	f       walFile
	size    atomic.Int64
	records int64
	nextSeq int64

	// failure latches the first error the log cannot heal in place: a
	// failed fsync — Linux may already have dropped the dirty pages it
	// covered, so no later fsync can vouch for them — or a torn write whose
	// truncate failed, leaving a garbage frame that would silently eat
	// every record appended after it. Every later Append, AppendFrames,
	// Trim and Close returns it; only Reset clears it. Atomic because
	// syncTo latches it without mu.
	failure atomic.Pointer[error]

	// syncMu serializes fsyncs (group commit): synced is the high-water
	// byte offset known durable; a goroutine whose write offset is below
	// it skips its fsync entirely.
	syncMu sync.Mutex
	synced int64

	fsyncs atomic.Int64

	// appendHist and fsyncFor are the optional latency instruments
	// (Instrument); no-ops when the embedder wires no telemetry. fsyncFor
	// picks the histogram by the log's byte size at fsync time — fsync
	// latency grows with file size (see BenchmarkMutationPersistence:
	// ~120µs at a near-empty log vs ~735µs past tens of MiB, with encode
	// cost flat), so a single unlabeled series would hide whether a slow
	// fsync is the disk or an overgrown log that compaction should have
	// reset.
	appendHist *telemetry.Histogram
	fsyncFor   func(sizeBytes int64) *telemetry.Histogram
}

// Instrument attaches latency instruments: appendH observes every
// successful Append/AppendFrames end to end (marshal, frame, write and
// fsync); fsyncFor maps the log's byte size at fsync time to the
// histogram that observes that fsync. Call before the first Append;
// either may be nil.
func (w *WAL) Instrument(appendH *telemetry.Histogram, fsyncFor func(sizeBytes int64) *telemetry.Histogram) {
	w.appendHist = appendH
	w.fsyncFor = fsyncFor
}

// observeFsync records one fsync duration in the histogram fsyncFor
// picks for the log size synced.
func (w *WAL) observeFsync(sizeBytes int64, elapsed time.Duration) {
	if w.fsyncFor != nil {
		w.fsyncFor(sizeBytes).Observe(elapsed.Seconds())
	}
}

// OpenWAL opens (creating if absent) a city's log for appending. A new or
// empty file gets the magic header; an existing file must carry it —
// callers run ReplayWAL first, which repairs or quarantines bad files, so
// a bad header here is an I/O-level surprise, not routine corruption.
func OpenWAL(dir, key string) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: wal dir: %w", err)
	}
	path := WALPath(dir, key)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat wal: %w", err)
	}
	size := st.Size()
	if size == 0 {
		if err := startLog(f); err != nil {
			f.Close()
			return nil, err
		}
		size = walHeaderLen
	} else {
		var magic [8]byte
		if _, err := f.ReadAt(magic[:], 0); err != nil || magic != walMagic {
			f.Close()
			return nil, fmt.Errorf("store: wal %s has no valid header (run replay first)", path)
		}
	}
	w := &WAL{path: path, f: f}
	w.size.Store(size)
	w.synced = size
	w.nextSeq = 1
	// Records and sequence in the existing suffix are unknown here; the
	// caller learned both from ReplayWAL and seeds them (Seed) so
	// compaction thresholds see the true replay debt and new records
	// never reuse a sequence number a snapshot already covers.
	return w, nil
}

// Seed primes the appender after recovery: records is how many records
// the log file holds (ReplayWAL's CurrentRecords), lastSeq the
// highest sequence number ever issued for this city — the max of the
// snapshot's WALSeq and every replayed record. Appending a seq at or
// below a snapshot's watermark would make the record invisible to
// replay, so this must be called before the first Append.
func (w *WAL) Seed(records, lastSeq int64) {
	w.mu.Lock()
	w.records = records
	w.nextSeq = lastSeq + 1
	w.mu.Unlock()
}

// LastSeq returns the sequence number of the most recently appended
// record — the watermark a compaction snapshot records as WALSeq.
func (w *WAL) LastSeq() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq - 1
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Append stamps the record's sequence number, encodes, frames, writes
// and fsyncs it (group-committed), returning the stamped
// sequence — the commit token a mutation response hands back to its
// client. Safe for concurrent use. An error means the record is not
// durable and the caller must not install it: a partial write is healed
// by truncating the file back to the record's start; a failed fsync, or
// a heal that fails too, latches the log (see WAL.failure).
func (w *WAL) Append(rec Record) (int64, error) {
	start := time.Now()
	v := recordJSON(rec)
	w.mu.Lock()
	if err := w.writableLocked(); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	seq := w.nextSeq
	v.Seq = seq
	payload, err := json.Marshal(v)
	if err != nil {
		w.mu.Unlock()
		return 0, fmt.Errorf("store: wal encode: %w", err)
	}
	if len(payload) > maxWALRecord {
		w.mu.Unlock()
		return 0, fmt.Errorf("store: wal record %d bytes exceeds cap %d", len(payload), maxWALRecord)
	}
	if err := w.writeLocked(EncodeFrame(payload), 1, seq+1); err != nil {
		return 0, err
	}
	w.appendHist.ObserveSince(start)
	return seq, nil
}

// AppendFrames appends a run of already-sequenced frames — shipped from a
// primary's log — verbatim, preserving their sequence numbers instead of
// stamping new ones. This is how a follower makes replicated records
// durable in the byte-identical format its own recovery replays. Every
// frame is encoded into a single buffer, written with one write call, and
// covered by a single group-commit fsync. Frames whose sequence the log
// already holds are skipped (at-least-once delivery re-sends them, and
// replaying a duplicate would double-apply). The rest must continue the
// log without a hole: a run whose first new frame is not LastSeq()+1, or
// that skips a sequence, is refused whole and the log is left untouched —
// appending past a hole would report a head whose records a restart
// cannot replay. An error means none of the run's frames committed: a
// partial write is healed by truncating back to the run's start, like
// Append.
func (w *WAL) AppendFrames(frames []WALFrame) error {
	start := time.Now()
	w.mu.Lock()
	if err := w.writableLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	next := w.nextSeq
	var buf []byte
	n := 0
	for _, fr := range frames {
		switch {
		case fr.Seq < next:
			continue // already durable here; idempotent re-send
		case fr.Seq > next:
			w.mu.Unlock()
			return fmt.Errorf("store: wal append: frame seq %d does not follow seq %d", fr.Seq, next-1)
		case len(fr.Payload) > maxWALRecord:
			w.mu.Unlock()
			return fmt.Errorf("store: wal record %d bytes exceeds cap %d", len(fr.Payload), maxWALRecord)
		}
		buf = appendFrame(buf, fr.Payload)
		next++
		n++
	}
	if n == 0 {
		w.mu.Unlock()
		return nil
	}
	if err := w.writeLocked(buf, n, next); err != nil {
		return err
	}
	w.appendHist.ObserveSince(start)
	return nil
}

// latch records err as the log's failure unless an earlier one is
// already latched, and returns the latched failure.
func (w *WAL) latch(err error) error {
	w.failure.CompareAndSwap(nil, &err)
	return w.latched()
}

// latched returns the log's latched failure, or nil.
func (w *WAL) latched() error {
	if p := w.failure.Load(); p != nil {
		return *p
	}
	return nil
}

// writableLocked refuses appends to a closed or failed log; w.mu is held.
func (w *WAL) writableLocked() error {
	if w.f == nil {
		return fmt.Errorf("store: wal closed")
	}
	return w.latched()
}

// writeLocked writes buf — n whole frames, the last one sequence next-1 —
// at the end of the log, then fsyncs it. Called with w.mu held; it
// unlocks.
func (w *WAL) writeLocked(buf []byte, n int, next int64) error {
	start := w.size.Load()
	wrote, err := w.f.Write(buf)
	if err != nil {
		err = fmt.Errorf("store: wal append: %w", err)
		if wrote > 0 {
			if terr := w.f.Truncate(start); terr != nil {
				w.latch(fmt.Errorf("%w; truncating the torn frame failed: %v", err, terr))
				w.size.Add(int64(wrote))
			}
		}
		w.mu.Unlock()
		return err
	}
	w.size.Store(start + int64(wrote))
	w.records += int64(n)
	w.nextSeq = next
	off := w.size.Load()
	w.mu.Unlock()
	return w.syncTo(off)
}

// syncTo makes bytes up to off durable. Group commit: if another
// goroutine's fsync already covered off, return immediately. A failed
// fsync latches the log: a later fsync's success says nothing about the
// pages this one failed to write.
func (w *WAL) syncTo(off int64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced >= off {
		return nil
	}
	if err := w.latched(); err != nil {
		return err
	}
	// Everything written before this fsync call is covered by it, so the
	// durable watermark is the size observed now, not just off.
	target := w.size.Load()
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return w.latch(fmt.Errorf("store: wal fsync: %w", err))
	}
	w.observeFsync(target, time.Since(start))
	w.fsyncs.Add(1)
	w.synced = target
	return nil
}

// WALMark is a position in a log: it covers the records up to sequence
// Seq and remembers the byte offset where the records after it begin.
// Compaction takes one, writes the snapshot covering Seq, and then trims
// the log to the records after the mark.
type WALMark struct {
	Seq     int64 // the sequence of the last record up to the mark
	off     int64 // the byte offset where the records after the mark begin
	records int64 // how many records the file holds up to the mark
}

// Mark returns the log's current end. Compaction takes it while its city's
// write lock keeps every mutation out, so every record up to the mark is
// durable, or the log latched.
func (w *WAL) Mark() WALMark {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALMark{Seq: w.nextSeq - 1, off: w.size.Load(), records: w.records}
}

// Trim drops the records up to m once a durable snapshot covers them: the
// log file is replaced, through writeFileAtomic, by its header plus a
// byte-for-byte copy of the records appended after the mark, and
// reopened. m must come from Mark on this log with no Trim or Reset since.
//
// An append whose fsync is still queued behind the trim wrote its bytes
// before the trim took the log's locks, so they are in the copy, and the
// copy is fsynced before the rename: the record is durable in the new
// file before its own fsync runs. A failure before the rename leaves the
// whole log in place; replay over the new snapshot skips what it covers,
// and the next compaction trims. A failure after the rename latches the
// log, because the open file is the one the rename replaced.
func (w *WAL) Trim(m WALMark) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if err := w.writableLocked(); err != nil {
		return err
	}
	size := w.size.Load()
	if m.off < walHeaderLen || m.off > size {
		return fmt.Errorf("store: wal trim: mark at byte %d outside a %d-byte log", m.off, size)
	}
	buf := make([]byte, walHeaderLen+size-m.off)
	copy(buf, walMagic[:])
	src, err := os.Open(w.path)
	if err != nil {
		return fmt.Errorf("store: wal trim: %w", err)
	}
	before, err := src.Stat()
	if err == nil {
		_, err = src.ReadAt(buf[walHeaderLen:], m.off)
	}
	src.Close()
	if err != nil {
		return fmt.Errorf("store: wal trim: %w", err)
	}
	err = writeFileAtomic(w.path, func(out io.Writer) error {
		_, err := out.Write(buf)
		return err
	})
	if err != nil {
		if after, serr := os.Stat(w.path); serr == nil && os.SameFile(before, after) {
			return err // not renamed: the whole log is still in place
		}
		return w.latch(err)
	}
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return w.latch(fmt.Errorf("store: wal trim reopen: %w", err))
	}
	w.f.Close() // the copy holds this file's records after the mark, fsynced
	w.f = f
	w.size.Store(int64(len(buf)))
	w.synced = int64(len(buf))
	w.records -= m.records
	return nil
}

// startLog writes the magic header into an empty log file and makes the
// file and its directory entry durable.
func startLog(f *os.File) error {
	if _, err := f.Write(walMagic[:]); err != nil {
		return fmt.Errorf("store: wal header: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: wal header sync: %w", err)
	}
	return syncDir(filepath.Dir(f.Name()))
}

// Reset truncates the log back to its header — the step after a
// follower's snapshot handoff, which rewrote the state the log was a
// suffix of. The truncation is fsynced so a crash cannot resurrect
// pre-handoff records on top of the new snapshot, and it clears a latched
// failure: whatever the failure left in the file was just truncated away.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.f == nil {
		return fmt.Errorf("store: wal closed")
	}
	if err := w.f.Truncate(walHeaderLen); err != nil {
		return fmt.Errorf("store: wal truncate: %w", err)
	}
	w.failure.Store(nil)
	if err := w.f.Sync(); err != nil {
		return w.latch(fmt.Errorf("store: wal truncate sync: %w", err))
	}
	w.size.Store(walHeaderLen)
	w.records = 0
	w.synced = walHeaderLen
	return nil
}

// Close fsyncs the bytes of appends still in flight, then releases the
// file handle. On a latched log it skips the fsync and returns the
// latched failure.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.latched()
	if err == nil {
		if serr := w.f.Sync(); serr != nil {
			err = w.latch(fmt.Errorf("store: wal fsync: %w", serr))
		} else {
			w.synced = w.size.Load()
		}
	}
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("store: wal close: %w", cerr)
	}
	w.f = nil
	return err
}

// Stats snapshots the appender's counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	records := w.records
	size := w.size.Load()
	w.mu.Unlock()
	return WALStats{
		Records: records,
		Bytes:   max(size-walHeaderLen, 0),
		Fsyncs:  w.fsyncs.Load(),
	}
}

// --- replay ---

// WALReplayInfo reports what recovery found in a city's log.
type WALReplayInfo struct {
	// Records applied on top of the snapshot.
	Records int
	// Skipped records whose sequence number the snapshot's WALSeq already
	// covers — a compaction that stopped between its snapshot and its trim.
	Skipped int
	// CurrentRecords counts the valid records in the log file, skipped ones
	// included; it seeds the appender's counter, so a log a crash left
	// untrimmed compacts sooner.
	CurrentRecords int64
	// LastSeq is the highest sequence number observed — snapshot
	// watermark included — and seeds the appender's sequence counter.
	LastSeq int64
	// Bytes of valid log (past the header) after any repair.
	Bytes int64
	// Truncated is non-empty when a torn or invalid tail was dropped; it
	// says where and why. Surfaced on /healthz, never fatal.
	Truncated string
	// DroppedBytes is how much tail the repair removed.
	DroppedBytes int64
}

// ReplayWAL reads the city's log, decodes every valid record
// (DecodeRecord) and passes it to apply, in log order. A segment an
// earlier version's compaction left beside the log is folded into it
// first (foldPendingWAL). Records whose sequence number is at or below
// after (the snapshot's watermark) are skipped undecoded, so replay is
// idempotent no matter where a compaction stopped; a record whose
// sequence does not rise above the last one passed is out of order.
// The longest valid prefix wins: at the first torn frame, CRC mismatch,
// undecodable or out-of-order record, or record apply rejects, the file
// is truncated to the last valid record in place — the repair that lets
// the next appender continue from a consistent tail — and the cut is
// reported in the info. apply must leave its state as it was when it
// rejects a record, so the state ends at exactly the kept prefix. A file
// whose header is unreadable is quarantined to <path>.corrupt like a
// corrupt snapshot. I/O errors (not corruption) fail the replay.
func ReplayWAL(dir, key string, city *dataset.City, after int64, apply func(Record) error) (*WALReplayInfo, error) {
	if city == nil || city.POIs == nil {
		return nil, fmt.Errorf("store: nil city")
	}
	if err := foldPendingWAL(dir, key); err != nil {
		return nil, err
	}
	info := &WALReplayInfo{LastSeq: after}
	step := func(payload []byte) (skipped bool, err error) {
		rec, err := parseRecord(payload)
		if err != nil {
			return false, err
		}
		if rec.Seq != 0 {
			if rec.Seq <= after {
				return true, nil // the snapshot already folded this record in
			}
			if rec.Seq <= info.LastSeq {
				return false, fmt.Errorf("sequence %d regresses (last %d)", rec.Seq, info.LastSeq)
			}
		}
		dec, err := resolveRecord(rec, city)
		if err != nil {
			return false, err
		}
		if err := apply(dec); err != nil {
			return false, err
		}
		if rec.Seq != 0 {
			info.LastSeq = rec.Seq
		}
		return false, nil
	}
	if err := replayWALFile(WALPath(dir, key), step, info); err != nil {
		return nil, err
	}
	return info, nil
}

// foldPendingWAL folds the sealed segment an earlier version's compaction
// left beside the log (<key>.wal.pending, when it stopped before its
// snapshot landed) into the log, once: the segment is replaced, through
// writeFileAtomic, by itself followed by the log's frames, then renamed
// over the log, and the directory is fsynced. Neither file is written in
// place, so a crash or a failed write leaves either the two files as they
// were (a temp file beside them is ignored) or the whole fold beside the
// log. Replay's own rules then recover what the two files held: a torn
// segment cuts the log's records that follow it, and a fold repeated
// after the first rename re-appends the log's records, which replay cuts
// as sequence regressions.
func foldPendingWAL(dir, key string) error {
	pending, path := PendingWALPath(dir, key), WALPath(dir, key)
	segment, err := os.ReadFile(pending)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: fold wal segment: %w", err)
	}
	log, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: fold wal segment: %w", err)
	}
	if int64(len(log)) > walHeaderLen {
		segment = append(segment, log[walHeaderLen:]...)
	}
	if err := writeFileAtomic(pending, func(w io.Writer) error {
		_, err := w.Write(segment)
		return err
	}); err != nil {
		return fmt.Errorf("store: fold wal segment: %w", err)
	}
	if err := os.Rename(pending, path); err != nil {
		return fmt.Errorf("store: fold wal segment: %w", err)
	}
	return syncDir(dir)
}

// replayWALFile scans the log file, passing each record's payload to step
// and repairing a torn tail in place.
func replayWALFile(path string, step func(payload []byte) (skipped bool, err error), info *WALReplayInfo) error {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read wal: %w", err)
	}
	name := filepath.Base(path)
	if int64(len(raw)) < walHeaderLen || [8]byte(raw[:walHeaderLen]) != walMagic {
		// No valid header: the whole file is unusable. Quarantine it so
		// the evidence survives and a fresh log can start.
		dst := path + ".corrupt"
		if err := os.Rename(path, dst); err != nil {
			return fmt.Errorf("store: quarantine headerless wal: %w", err)
		}
		info.Truncated = fmt.Sprintf("%s: no valid header; moved to %s", name, dst)
		info.DroppedBytes = int64(len(raw))
		return nil
	}
	off := walHeaderLen
	for off < int64(len(raw)) {
		payload, n, err := DecodeFrame(raw[off:])
		if err != nil {
			info.Truncated = fmt.Sprintf("%s: bad frame at offset %d: %v", name, off, err)
			break
		}
		skipped, err := step(payload)
		if err != nil {
			info.Truncated = fmt.Sprintf("%s: inapplicable record at offset %d: %v", name, off, err)
			break
		}
		if skipped {
			info.Skipped++
		} else {
			info.Records++
		}
		info.CurrentRecords++
		off += int64(n)
	}
	if off < int64(len(raw)) {
		info.DroppedBytes = int64(len(raw)) - off
		if err := os.Truncate(path, off); err != nil {
			return fmt.Errorf("store: truncate torn wal tail: %w", err)
		}
	}
	info.Bytes = off - walHeaderLen
	return nil
}
