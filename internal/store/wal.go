package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
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
// state is snapshot + log suffix: WriteSnapshot (state.go) captures the
// full state at compaction time, and between compactions every mutation
// appends exactly one typed record here, so mutation cost is O(1 record)
// instead of O(city state). Recovery replays the snapshot and then the
// log; a torn tail (partial frame, CRC mismatch, or a record the state
// cannot apply) is truncated at the last valid record rather than
// bricking the city. The record stream is also the replication hook: a
// follower can tail frames, which it could never do with atomic renames.
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

// Record kinds. Each mirrors one server mutation.
const (
	walOpGroupCreate  = "groupCreate"  // a group registered
	walOpPackageBuild = "packageBuild" // a package built for a group
	walOpCustomOp     = "customOp"     // one §3.3 customization op applied
	walOpRefine       = "refine"       // a package rebuilt from a refined profile
)

// walRecordJSON is the on-disk payload of one record. Exactly the fields
// for its kind are set; POIs are referenced by id like every store format.
type walRecordJSON struct {
	Op string `json:"op"`

	// Seq is the record's log sequence number, stamped by Append in
	// commit order and strictly increasing across segment rotations and
	// compactions. A snapshot records the highest Seq it folds in
	// (ServerState.WALSeq), so replay skips records the snapshot already
	// contains — without it, a crash between a compaction's snapshot
	// write and its log truncation would double-apply customOp records
	// (doubling /refine's op log).
	Seq int64 `json:"seq,omitempty"`

	// groupCreate / packageBuild / refine: the allocated id.
	ID int `json:"id,omitempty"`

	// groupCreate.
	Group *groupJSON `json:"group,omitempty"`

	// packageBuild / refine.
	GroupID int          `json:"groupId,omitempty"`
	Method  string       `json:"method,omitempty"`
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

// WALRecord is one typed, encodable log record. Constructors capture all
// mutable state (POI ids, items) eagerly, so a record stays valid after
// the caller releases its entity locks.
type WALRecord struct{ rec walRecordJSON }

// Kind returns the record's operation name (groupCreate, packageBuild,
// customOp, refine).
func (r WALRecord) Kind() string { return r.rec.Op }

// GroupCreateRecord logs a group registration under the allocated id.
func GroupCreateRecord(id int, g *profile.Group) WALRecord {
	gj := groupToJSON(g)
	return WALRecord{rec: walRecordJSON{Op: walOpGroupCreate, ID: id, Group: &gj}}
}

// PackageBuildRecord logs a built package under the allocated id.
func PackageBuildRecord(id, groupID int, method string, tp *core.TravelPackage) WALRecord {
	pj := packageToJSON(tp)
	return WALRecord{rec: walRecordJSON{Op: walOpPackageBuild, ID: id, GroupID: groupID, Method: method, Package: &pj}}
}

// RefineRecord logs a package rebuilt from a refined profile. Replay
// applies it exactly like a build; source and strategy record provenance
// for operators tailing the log.
func RefineRecord(id, groupID int, method string, tp *core.TravelPackage, source int, strategy string) WALRecord {
	pj := packageToJSON(tp)
	return WALRecord{rec: walRecordJSON{
		Op: walOpRefine, ID: id, GroupID: groupID, Method: method, Package: &pj,
		Source: source, Strategy: strategy,
	}}
}

// CustomOpRecord logs one customization op on a package together with the
// affected CI's post-op state (for GENERATE, the new CI).
func CustomOpRecord(packageID int, op interact.Op, after *ci.CI) WALRecord {
	oj := opsToJSON([]interact.Op{op})[0]
	cj := ciToJSON(after)
	return WALRecord{rec: walRecordJSON{Op: walOpCustomOp, PackageID: packageID, Change: &oj, After: &cj}}
}

// WALPath is the canonical log location for a city key inside a state
// directory (alongside SnapshotPath).
func WALPath(dir, key string) string {
	return filepath.Join(dir, key+".wal")
}

// PendingWALPath is where Rotate seals a log segment while its compaction
// snapshot is being written. At most one pending segment exists per city;
// recovery replays it before the current log.
func PendingWALPath(dir, key string) string {
	return WALPath(dir, key) + ".pending"
}

// RemovePendingWAL deletes a city's sealed segment — the final step of a
// compaction, once the snapshot that covers it is durably in place. A
// missing segment is not an error.
func RemovePendingWAL(dir, key string) error {
	if err := os.Remove(PendingWALPath(dir, key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: remove pending wal: %w", err)
	}
	return nil
}

// --- sync policy ---

// WALSyncMode selects when appends reach stable storage.
type WALSyncMode int

const (
	// WALSyncAlways fsyncs on every append (group-committed: one fsync
	// covers every append that completed before it). Survives power loss.
	WALSyncAlways WALSyncMode = iota
	// WALSyncInterval fsyncs at most once per interval, on the append
	// that finds the interval expired. Bounded loss window on power
	// failure; process crashes lose nothing (the OS has the writes).
	WALSyncInterval
	// WALSyncOff never fsyncs from the appender; durability rides on the
	// OS flushing and on compaction's snapshot fsync.
	WALSyncOff
)

// DefaultWALSyncInterval is the flush period ParseWALSync uses for the
// bare "interval" spelling.
const DefaultWALSyncInterval = 100 * time.Millisecond

// WALSyncPolicy is a mode plus its interval (WALSyncInterval only). The
// zero value is WALSyncAlways, the safe default.
type WALSyncPolicy struct {
	Mode     WALSyncMode
	Interval time.Duration
}

// ParseWALSync parses the -wal-sync flag: "always", "off", "interval"
// (DefaultWALSyncInterval), or a duration like "250ms" (interval mode
// with that period).
func ParseWALSync(s string) (WALSyncPolicy, error) {
	switch s {
	case "", "always":
		return WALSyncPolicy{Mode: WALSyncAlways}, nil
	case "off", "never":
		return WALSyncPolicy{Mode: WALSyncOff}, nil
	case "interval":
		return WALSyncPolicy{Mode: WALSyncInterval, Interval: DefaultWALSyncInterval}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return WALSyncPolicy{}, fmt.Errorf("store: wal sync %q (want always, off, interval, or a positive duration)", s)
	}
	return WALSyncPolicy{Mode: WALSyncInterval, Interval: d}, nil
}

// String renders the policy in the same vocabulary ParseWALSync accepts.
func (p WALSyncPolicy) String() string {
	switch p.Mode {
	case WALSyncOff:
		return "off"
	case WALSyncInterval:
		return p.Interval.String()
	default:
		return "always"
	}
}

// --- appender ---

// WALStats is a point-in-time view of an appender for health reporting
// and compaction thresholds. Records/Bytes count since the last Reset
// (i.e. since the last compaction), so they are exactly the replay debt a
// restart would pay.
type WALStats struct {
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"` // log bytes past the header
	Fsyncs  int64 `json:"fsyncs"`
}

// WAL is a per-city append-only log. Appends from concurrent mutations
// serialize on an internal mutex for the write itself; fsyncs group-commit
// — while one fsync is in flight, later appenders queue on the sync mutex
// and discover their bytes were already covered, so n concurrent durable
// appends cost far fewer than n fsyncs.
type WAL struct {
	path    string
	pending string // sealed-segment path (Rotate target)
	policy  WALSyncPolicy

	// mu serializes file writes, truncation, rotation and close.
	// size/records are read by Stats under mu; size is additionally
	// atomic so syncTo can read it without taking mu. nextSeq is the
	// next record's log sequence number — monotonic across Reset and
	// Rotate, seeded from recovery. broken latches a write failure the
	// appender could not heal (the file may hold a garbage frame that
	// would silently eat any record appended after it).
	mu      sync.Mutex
	f       *os.File
	size    atomic.Int64
	records int64
	nextSeq int64
	broken  bool

	// syncMu serializes fsyncs (group commit): synced is the high-water
	// byte offset known durable; a goroutine whose write offset is below
	// it skips its fsync entirely. flushTimer covers the tail of a burst
	// under WALSyncInterval: an append that skips its fsync arms it, so
	// the last records of a burst reach disk within one interval even if
	// no further append ever comes.
	syncMu     sync.Mutex
	synced     int64
	lastSync   time.Time
	flushTimer *time.Timer

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
// successful Append/AppendFrames end to end (marshal, frame, write, and
// whatever the sync policy charges the appender); fsyncFor maps the log's
// byte size at fsync time to the histogram that observes that fsync
// (group commits and background flushes). Call before the first Append;
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
func OpenWAL(dir, key string, policy WALSyncPolicy) (*WAL, error) {
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
		if _, err := f.Write(walMagic[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: wal header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: wal header sync: %w", err)
		}
		size = walHeaderLen
	} else {
		var magic [8]byte
		if _, err := f.ReadAt(magic[:], 0); err != nil || magic != walMagic {
			f.Close()
			return nil, fmt.Errorf("store: wal %s has no valid header (run replay first)", path)
		}
	}
	w := &WAL{path: path, pending: PendingWALPath(dir, key), policy: policy, f: f}
	w.size.Store(size)
	w.synced = size
	w.lastSync = time.Now()
	w.nextSeq = 1
	// Records and sequence in the existing suffix are unknown here; the
	// caller learned both from ReplayWAL and seeds them (Seed) so
	// compaction thresholds see the true replay debt and new records
	// never reuse a sequence number a snapshot already covers.
	return w, nil
}

// Seed primes the appender after recovery: records is how many records
// the current log file holds (ReplayWAL's CurrentRecords), lastSeq the
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

// PendingExists reports whether a sealed segment from an unfinished
// compaction is on disk.
func (w *WAL) PendingExists() bool {
	_, err := os.Stat(w.pending)
	return err == nil
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Append stamps the record's sequence number, marshals, frames and
// writes it, then applies the sync policy, returning the stamped
// sequence — the commit token a mutation response hands back to its
// client. Safe for concurrent use. An error means the record did not
// commit: a partial write is healed by truncating the file back to the
// record's start, and if even that fails the appender latches broken —
// a garbage frame mid-file would make replay silently discard every
// record after it, so accepting further appends would turn one I/O
// error into unbounded invisible loss.
func (w *WAL) Append(rec WALRecord) (int64, error) {
	start := time.Now()
	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		return 0, fmt.Errorf("store: wal closed")
	}
	rec.rec.Seq = w.nextSeq
	payload, err := json.Marshal(rec.rec)
	if err != nil {
		w.mu.Unlock()
		return 0, fmt.Errorf("store: wal encode: %w", err)
	}
	if err := w.appendLocked(payload, rec.rec.Seq); err != nil {
		return 0, err
	}
	w.appendHist.ObserveSince(start)
	return rec.rec.Seq, nil
}

// AppendFrames appends a run of already-sequenced frames — shipped from a
// primary's log — verbatim, preserving their sequence numbers instead of
// stamping new ones. This is how a follower makes replicated records
// durable in the byte-identical format its own recovery replays. Every
// frame is encoded into a single buffer, written with one write call, and
// covered by a single group-commit fsync. Frames whose sequence the log
// already holds are skipped (at-least-once delivery re-sends them, and
// replaying a duplicate would double-apply); within the run sequences
// must be strictly ascending. An error
// means none of the run's frames committed: a partial write is healed by
// truncating back to the run's start, like Append.
func (w *WAL) AppendFrames(frames []WALFrame) error {
	if len(frames) == 0 {
		return nil
	}
	start := time.Now()
	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		return fmt.Errorf("store: wal closed")
	}
	if w.broken {
		w.mu.Unlock()
		return fmt.Errorf("store: wal broken by earlier write failure (compaction or restart recovers)")
	}
	var total int
	n := 0
	seq := w.nextSeq
	for _, fr := range frames {
		if fr.Seq < seq {
			continue // already durable here; idempotent re-send
		}
		if len(fr.Payload) > maxWALRecord {
			w.mu.Unlock()
			return fmt.Errorf("store: wal record %d bytes exceeds cap %d", len(fr.Payload), maxWALRecord)
		}
		total += walFrameLen + len(fr.Payload)
		seq = fr.Seq + 1
		n++
	}
	if n == 0 {
		w.mu.Unlock()
		return nil
	}
	buf := make([]byte, 0, total)
	next := w.nextSeq
	for _, fr := range frames {
		if fr.Seq < next {
			continue
		}
		var hdr [walFrameLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(fr.Payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(fr.Payload, walCRC))
		buf = append(buf, hdr[:]...)
		buf = append(buf, fr.Payload...)
		next = fr.Seq + 1
	}
	startOff := w.size.Load()
	wrote, err := w.f.Write(buf)
	if err != nil {
		if wrote > 0 {
			if terr := w.f.Truncate(startOff); terr != nil {
				w.broken = true
				w.size.Add(int64(wrote))
			}
		}
		w.mu.Unlock()
		return fmt.Errorf("store: wal append: %w", err)
	}
	w.size.Store(startOff + int64(wrote))
	w.records += int64(n)
	w.nextSeq = next
	off := w.size.Load()
	w.mu.Unlock()

	var serr error
	switch w.policy.Mode {
	case WALSyncAlways:
		serr = w.syncTo(off, false)
	case WALSyncInterval:
		serr = w.syncTo(off, true)
	}
	if serr != nil {
		return serr
	}
	w.appendHist.ObserveSince(start)
	return nil
}

// appendLocked frames and writes one payload whose stamped sequence is
// seq, then applies the sync policy. Called with w.mu held; it unlocks.
func (w *WAL) appendLocked(payload []byte, seq int64) error {
	if w.broken {
		w.mu.Unlock()
		return fmt.Errorf("store: wal broken by earlier write failure (compaction or restart recovers)")
	}
	if len(payload) > maxWALRecord {
		w.mu.Unlock()
		return fmt.Errorf("store: wal record %d bytes exceeds cap %d", len(payload), maxWALRecord)
	}
	buf := make([]byte, walFrameLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, walCRC))
	copy(buf[walFrameLen:], payload)

	start := w.size.Load()
	n, err := w.f.Write(buf)
	if err != nil {
		if n > 0 {
			if terr := w.f.Truncate(start); terr != nil {
				w.broken = true
				w.size.Add(int64(n))
			}
		}
		w.mu.Unlock()
		return fmt.Errorf("store: wal append: %w", err)
	}
	w.size.Store(start + int64(n))
	w.records++
	w.nextSeq = seq + 1
	off := w.size.Load()
	w.mu.Unlock()

	switch w.policy.Mode {
	case WALSyncAlways:
		return w.syncTo(off, false)
	case WALSyncInterval:
		return w.syncTo(off, true)
	}
	return nil
}

// syncTo makes bytes up to off durable. Group commit: if another
// goroutine's fsync already covered off, return immediately. With
// intervalOnly set, the fsync additionally waits for the policy interval
// to elapse since the last one; a skipped fsync arms the flush timer so
// the bytes still reach disk within one interval if the burst ends here.
func (w *WAL) syncTo(off int64, intervalOnly bool) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced >= off {
		return nil
	}
	if intervalOnly {
		if wait := w.policy.Interval - time.Since(w.lastSync); wait > 0 {
			if w.flushTimer == nil {
				w.flushTimer = time.AfterFunc(wait, w.backgroundFlush)
			}
			return nil
		}
	}
	// Everything written before this fsync call is covered by it, so the
	// durable watermark is the size observed now, not just off.
	target := w.size.Load()
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal fsync: %w", err)
	}
	w.observeFsync(target, time.Since(start))
	w.fsyncs.Add(1)
	w.synced = target
	w.lastSync = time.Now()
	return nil
}

// backgroundFlush is the interval policy's deadline: it fsyncs whatever
// the last burst left unsynced. f is mutated only under mu+syncMu both
// held, so reading it under syncMu alone is safe.
func (w *WAL) backgroundFlush() {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.flushTimer = nil
	if w.f == nil || w.synced >= w.size.Load() {
		return
	}
	target := w.size.Load()
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return // the next append's fsync (or Close) retries
	}
	w.observeFsync(target, time.Since(start))
	w.fsyncs.Add(1)
	w.synced = target
	w.lastSync = time.Now()
}

// stopFlushLocked cancels a pending background flush; callers hold syncMu.
func (w *WAL) stopFlushLocked() {
	if w.flushTimer != nil {
		w.flushTimer.Stop()
		w.flushTimer = nil
	}
}

// Sync forces an fsync regardless of policy (shutdown paths).
func (w *WAL) Sync() error {
	return w.syncTo(w.size.Load(), false)
}

// Rotate seals the current log as the city's pending segment and starts
// a fresh, empty log, preserving the sequence counter. This is the O(1)
// step compaction takes under the city's write lock, so the expensive
// snapshot write can happen outside it while mutations keep appending to
// the new segment: the sealed segment holds exactly the records the
// in-flight snapshot will cover, and recovery replays pending-then-
// current if the process dies before the snapshot lands. Rotate refuses
// to run while a pending segment already exists (a previous compaction's
// snapshot never finished) — overwriting it would destroy records no
// snapshot contains; callers fall back to compacting inline.
func (w *WAL) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.f == nil {
		return fmt.Errorf("store: wal closed")
	}
	if w.broken {
		return fmt.Errorf("store: wal broken; rotate refused")
	}
	if _, err := os.Stat(w.pending); err == nil {
		return fmt.Errorf("store: pending segment %s already exists", w.pending)
	}
	// The sealed segment must be durable before the snapshot covering it
	// starts: the snapshot replaces these records, so losing them while
	// it is still being written would lose committed mutations.
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: rotate sync: %w", err)
	}
	if err := os.Rename(w.path, w.pending); err != nil {
		return fmt.Errorf("store: rotate rename: %w", err)
	}
	old := w.f
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_RDWR|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		// No active log to append to: latch broken so commits surface
		// the failure instead of silently dropping records.
		w.broken = true
		old.Close()
		return fmt.Errorf("store: rotate open: %w", err)
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		w.broken = true
		old.Close()
		f.Close()
		return fmt.Errorf("store: rotate header: %w", err)
	}
	if err := f.Sync(); err != nil {
		w.broken = true
		old.Close()
		f.Close()
		return fmt.Errorf("store: rotate header sync: %w", err)
	}
	old.Close()
	w.f = f
	w.size.Store(walHeaderLen)
	w.records = 0
	w.synced = walHeaderLen
	w.stopFlushLocked()
	return nil
}

// Reset truncates the log back to its header — the step after a
// successful compaction snapshot. The truncation is fsynced so a crash
// cannot resurrect pre-compaction records on top of the new snapshot.
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
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal truncate sync: %w", err)
	}
	w.size.Store(walHeaderLen)
	w.records = 0
	w.synced = walHeaderLen
	w.broken = false // the garbage frame, if any, was just truncated away
	w.stopFlushLocked()
	return nil
}

// Close releases the file handle. Pending bytes are fsynced first under
// any policy, so a clean shutdown never loses appended records.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.f == nil {
		return nil
	}
	w.stopFlushLocked()
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
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

// WALReplayInfo reports what recovery found in a city's log (the pending
// segment of an unfinished compaction, if any, then the current log).
type WALReplayInfo struct {
	// Records applied on top of the snapshot.
	Records int
	// Skipped records whose sequence number the snapshot's WALSeq already
	// covers — the crash-between-snapshot-and-truncate case.
	Skipped int
	// CurrentRecords counts valid records (applied + skipped) in the
	// current log file specifically; it seeds the appender's counter.
	CurrentRecords int64
	// LastSeq is the highest sequence number observed — snapshot
	// watermark included — and seeds the appender's sequence counter.
	LastSeq int64
	// Bytes of valid log (past the headers) after any repair.
	Bytes int64
	// Truncated is non-empty when a torn or invalid tail was dropped; it
	// says where and why. Surfaced on /healthz, never fatal.
	Truncated string
	// DroppedBytes is how much tail the repair removed.
	DroppedBytes int64
}

// ReplayWAL reads the city's log — pending segment first, then the
// current file — and applies every valid record to base (the snapshot
// state; nil means an empty first-boot state), returning the resulting
// state. Records whose sequence number the snapshot already covers are
// skipped, so replay is idempotent no matter where a compaction crashed.
// Within each file the longest valid prefix wins: at the first torn
// frame, CRC mismatch or inapplicable record, the file is truncated to
// the last valid record in place — the repair that lets the next appender
// continue from a consistent tail — and the cut is reported in the info.
// A file whose header is unreadable is quarantined to <path>.corrupt like
// a corrupt snapshot. I/O errors (not corruption) fail the replay.
func ReplayWAL(dir, key string, city *dataset.City, base *ServerState) (*ServerState, *WALReplayInfo, error) {
	if city == nil || city.POIs == nil {
		return nil, nil, fmt.Errorf("store: nil city")
	}
	st := base
	if st == nil {
		st = &ServerState{City: city.Name, NextID: 1}
	}
	info := &WALReplayInfo{}
	ap := newWALApplier(st, city)
	if err := replayWALFile(PendingWALPath(dir, key), false, ap, info); err != nil {
		return nil, nil, err
	}
	if info.Truncated != "" {
		// The pending segment lost records (torn tail or quarantine). The
		// current log continues from sequences that no longer exist, so
		// applying it would fabricate a history no consistent prefix ever
		// had — an op log with a hole in the middle. Drop the current log
		// entirely: the surviving prefix ends where the pending cut is.
		if err := dropWALFile(WALPath(dir, key), info); err != nil {
			return nil, nil, err
		}
	} else if err := replayWALFile(WALPath(dir, key), true, ap, info); err != nil {
		return nil, nil, err
	}
	info.LastSeq = ap.lastSeq
	ap.finish()
	return st, info, nil
}

// dropWALFile discards a log file's records (truncating it back to its
// header, or quarantining a headerless file) because a preceding segment
// lost records — replaying across the gap would be worse than cutting
// here.
func dropWALFile(path string, info *WALReplayInfo) error {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read wal: %w", err)
	}
	if int64(len(raw)) < walHeaderLen || [8]byte(raw[:walHeaderLen]) != walMagic {
		dst := path + ".corrupt"
		if err := os.Rename(path, dst); err != nil {
			return fmt.Errorf("store: quarantine headerless wal: %w", err)
		}
		info.DroppedBytes += int64(len(raw))
		info.Truncated += fmt.Sprintf("; %s: no valid header; moved to %s", filepath.Base(path), dst)
		return nil
	}
	if int64(len(raw)) == walHeaderLen {
		return nil
	}
	if err := os.Truncate(path, walHeaderLen); err != nil {
		return fmt.Errorf("store: drop wal after gap: %w", err)
	}
	info.DroppedBytes += int64(len(raw)) - walHeaderLen
	info.Truncated += fmt.Sprintf("; %s: dropped (%d bytes follow the cut)", filepath.Base(path), int64(len(raw))-walHeaderLen)
	return nil
}

// replayWALFile scans one log file, applying records through ap and
// repairing torn tails in place.
func replayWALFile(path string, current bool, ap *walApplier, info *WALReplayInfo) error {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read wal: %w", err)
	}
	name := filepath.Base(path)
	addCut := func(msg string) {
		if info.Truncated != "" {
			info.Truncated += "; "
		}
		info.Truncated += name + ": " + msg
	}
	if int64(len(raw)) < walHeaderLen || [8]byte(raw[:walHeaderLen]) != walMagic {
		// No valid header: the whole file is unusable. Quarantine it so
		// the evidence survives and a fresh log can start.
		dst := path + ".corrupt"
		if err := os.Rename(path, dst); err != nil {
			return fmt.Errorf("store: quarantine headerless wal: %w", err)
		}
		addCut(fmt.Sprintf("no valid header; moved to %s", dst))
		info.DroppedBytes += int64(len(raw))
		return nil
	}
	off := walHeaderLen
	for off < int64(len(raw)) {
		payload, n, err := DecodeFrame(raw[off:])
		if err != nil {
			addCut(fmt.Sprintf("bad frame at offset %d: %v", off, err))
			break
		}
		// The shared apply path: exactly what a replication follower runs
		// on shipped frames, so replay and replication cannot diverge.
		res, err := ap.applyPayload(payload)
		if err != nil {
			addCut(fmt.Sprintf("inapplicable record at offset %d: %v", off, err))
			break
		}
		if res.Skipped {
			info.Skipped++
		} else {
			info.Records++
		}
		if current {
			info.CurrentRecords++
		}
		off += int64(n)
	}
	if off < int64(len(raw)) {
		info.DroppedBytes += int64(len(raw)) - off
		if err := os.Truncate(path, off); err != nil {
			return fmt.Errorf("store: truncate torn wal tail: %w", err)
		}
	}
	info.Bytes += off - walHeaderLen
	return nil
}

// walApplier applies decoded records onto a ServerState, carrying id →
// slice-index maps so applying n records is O(n), not O(n²). skip is the
// snapshot's sequence watermark (records at or below it are already in
// the base state); lastSeq enforces strictly increasing sequences above
// it.
type walApplier struct {
	st      *ServerState
	city    *dataset.City
	skip    int64
	lastSeq int64
	used    map[int]bool // every id in the state (groups + packages)
	groups  map[int]int  // id -> index into st.Groups
	pkgs    map[int]int  // id -> index into st.Packages
}

func newWALApplier(st *ServerState, city *dataset.City) *walApplier {
	ap := &walApplier{
		st:      st,
		city:    city,
		skip:    st.WALSeq,
		lastSeq: st.WALSeq,
		used:    make(map[int]bool, len(st.Groups)+len(st.Packages)),
		groups:  make(map[int]int, len(st.Groups)),
		pkgs:    make(map[int]int, len(st.Packages)),
	}
	for i := range st.Groups {
		ap.used[st.Groups[i].ID] = true
		ap.groups[st.Groups[i].ID] = i
	}
	for i := range st.Packages {
		ap.used[st.Packages[i].ID] = true
		ap.pkgs[st.Packages[i].ID] = i
	}
	return ap
}

// takeID admits a newly created id: positive, unused, and advances NextID
// past it so post-replay allocation cannot collide.
func (ap *walApplier) takeID(id int) error {
	if id < 1 {
		return fmt.Errorf("id %d out of range", id)
	}
	if ap.used[id] {
		return fmt.Errorf("duplicate id %d", id)
	}
	ap.used[id] = true
	if id >= ap.st.NextID {
		ap.st.NextID = id + 1
	}
	return nil
}

// applyPayload decodes one frame payload and integrates it — the single
// apply path shared by restart replay and replication followers. The
// returned Applied reports what changed (Skipped: the sequence was
// already in the snapshot). A rejected record leaves the state untouched.
func (ap *walApplier) applyPayload(payload []byte) (Applied, error) {
	var rec walRecordJSON
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Applied{}, fmt.Errorf("undecodable record: %v", err)
	}
	res := Applied{Kind: rec.Op, Seq: rec.Seq, ID: rec.ID, PackageID: rec.PackageID}
	if rec.Seq != 0 {
		if rec.Seq <= ap.skip {
			res.Skipped = true
			return res, nil // the snapshot already folded this record in
		}
		if rec.Seq <= ap.lastSeq {
			return Applied{}, fmt.Errorf("sequence %d regresses (last %d)", rec.Seq, ap.lastSeq)
		}
	}
	if err := ap.applyOp(rec); err != nil {
		return Applied{}, err
	}
	if rec.Seq != 0 {
		ap.lastSeq = rec.Seq
	}
	return res, nil
}

func (ap *walApplier) applyOp(rec walRecordJSON) error {
	switch rec.Op {
	case walOpGroupCreate:
		// Validate fully before mutating: a rejected record must leave
		// the state untouched (it becomes the truncation point, and the
		// surviving prefix must replay to exactly the surviving state).
		if rec.Group == nil {
			return fmt.Errorf("groupCreate without group")
		}
		g, err := groupFromJSON(*rec.Group, ap.city.Schema)
		if err != nil {
			return err
		}
		if err := ap.takeID(rec.ID); err != nil {
			return err
		}
		ap.st.Groups = append(ap.st.Groups, GroupRecord{ID: rec.ID, Group: g})
		ap.groups[rec.ID] = len(ap.st.Groups) - 1
		return nil

	case walOpPackageBuild, walOpRefine:
		if rec.Package == nil {
			return fmt.Errorf("%s without package", rec.Op)
		}
		if _, ok := ap.groups[rec.GroupID]; !ok {
			return fmt.Errorf("%s references unknown group %d", rec.Op, rec.GroupID)
		}
		tp, err := packageFromJSON(*rec.Package, ap.city)
		if err != nil {
			return err
		}
		if err := ap.takeID(rec.ID); err != nil {
			return err
		}
		ap.st.Packages = append(ap.st.Packages, PackageRecord{
			ID: rec.ID, GroupID: rec.GroupID, Method: rec.Method, Package: tp,
		})
		ap.pkgs[rec.ID] = len(ap.st.Packages) - 1
		return nil

	case walOpCustomOp:
		if rec.Change == nil || rec.After == nil {
			return fmt.Errorf("customOp without change/after")
		}
		pi, ok := ap.pkgs[rec.PackageID]
		if !ok {
			return fmt.Errorf("customOp references unknown package %d", rec.PackageID)
		}
		pr := &ap.st.Packages[pi]
		gi, ok := ap.groups[pr.GroupID]
		if !ok {
			return fmt.Errorf("customOp package %d has unknown group %d", rec.PackageID, pr.GroupID)
		}
		ops, err := opsFromJSON([]opJSON{*rec.Change}, ap.city, ap.st.Groups[gi].Group.Size())
		if err != nil {
			return err
		}
		op := ops[0]
		after, err := ciFromJSON(*rec.After, ap.city)
		if err != nil {
			return err
		}
		tp := pr.Package
		if op.Kind == interact.OpGenerate {
			// GENERATE appends; its CIIndex is the new CI's slot.
			if op.CIIndex != len(tp.CIs) {
				return fmt.Errorf("generate CI index %d, package has %d CIs", op.CIIndex, len(tp.CIs))
			}
			tp.CIs = append(tp.CIs, after)
		} else {
			if op.CIIndex < 0 || op.CIIndex >= len(tp.CIs) {
				return fmt.Errorf("op CI index %d out of range [0,%d)", op.CIIndex, len(tp.CIs))
			}
			tp.CIs[op.CIIndex] = after
		}
		pr.Ops = append(pr.Ops, op)
		return nil

	default:
		return fmt.Errorf("unknown record kind %q", rec.Op)
	}
}

// finish restores the sorted-by-id invariant LoadServerState guarantees
// (concurrent mutations can commit records slightly out of id order).
// The id → index maps are rebuilt to match: a follower's applier keeps
// applying after every batch's finish, and a lookup through a stale
// index would resolve an id to a different record's slot.
func (ap *walApplier) finish() {
	sort.Slice(ap.st.Groups, func(i, j int) bool { return ap.st.Groups[i].ID < ap.st.Groups[j].ID })
	sort.Slice(ap.st.Packages, func(i, j int) bool { return ap.st.Packages[i].ID < ap.st.Packages[j].ID })
	for i := range ap.st.Groups {
		ap.groups[ap.st.Groups[i].ID] = i
	}
	for i := range ap.st.Packages {
		ap.pkgs[ap.st.Packages[i].ID] = i
	}
}
