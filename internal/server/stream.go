package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"grouptravel/internal/replicate"
	"grouptravel/internal/store"
	"grouptravel/internal/telemetry"
)

// This file is the primary half of log shipping: GET /cities/{city}/wal
// ?from={seq} streams every committed record after the follower's resume
// point, straight from the city's log file — and, when the resume point
// has fallen behind the compaction horizon (the records now live only in
// the snapshot), the snapshot first. The frames go out
// byte-for-byte as they sit in the log. A follower's own /wal endpoint
// serves the same way, so replicas can cascade.
//
// The response is held open and commit-driven: the handler writes the
// initial batch (snapshot handoff included when needed), then flushes
// frames via http.Flusher as commits land (the city's commitNotify wakes
// it), with zero-length heartbeat frames every ?hb={dur} so proxies and
// stall detectors see a live wire. The server may end the stream at any
// time — compaction moving the log out from under the reader, the
// stream-life cap, a promotion — and the client simply reconnects;
// at-least-once delivery and sequence-idempotent apply make the cut
// invisible.
//
// A request for a city this node has not loaded yet loads it, exactly as
// any other city-scoped request does: the appender's sequence counter is
// then the authoritative head, and the city stays resident for every
// later stream.

// errStreamAhead: the requested resume point is beyond this log's head —
// the caller has records this server never wrote. Divergence, not lag.
var errStreamAhead = errors.New("ahead of log head")

const (
	// maxStreamLife caps one push stream's lifetime, so every client
	// periodically reconnects into a fresh handoff decision (snapshot vs
	// frames) and a fresh handshake.
	maxStreamLife = 2 * time.Minute
	// Heartbeat cadence bounds: defaultHeartbeat when the client does not
	// choose, clamped into [minHeartbeat, maxHeartbeat] when it does.
	defaultHeartbeat = 2 * time.Second
	minHeartbeat     = 100 * time.Millisecond
	maxHeartbeat     = 30 * time.Second
)

// walStreamParams are the knobs of one /wal stream.
type walStreamParams struct {
	hb  time.Duration // heartbeat cadence on an idle stream
	fid string        // follower id for the replication-slot table
}

// maxFollowerIDLen bounds ?fid= so a hostile handshake cannot grow the
// slot table's keys (and its metric labels) without bound.
const maxFollowerIDLen = 200

// parseStreamParams reads hb/fid; on a bad value it writes the 400 and
// reports !ok. The heartbeat must be strictly positive: omitting the
// parameter is how a caller asks for the default. The stream=1 older
// followers send is ignored: every /wal response streams.
func parseStreamParams(w http.ResponseWriter, r *http.Request) (walStreamParams, bool) {
	p := walStreamParams{hb: defaultHeartbeat}
	q := r.URL.Query()
	if v := q.Get("hb"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeErr(w, http.StatusBadRequest, "bad hb %q", v)
			return p, false
		}
		p.hb = min(max(d, minHeartbeat), maxHeartbeat)
	}
	if v := q.Get("fid"); v != "" {
		if len(v) > maxFollowerIDLen {
			writeErr(w, http.StatusBadRequest, "fid longer than %d bytes", maxFollowerIDLen)
			return p, false
		}
		p.fid = v
	}
	return p, true
}

// handleWAL resolves the city — loading it on first touch — and serves
// its stream.
func (s *Server) handleWAL(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("city")
	if !s.reg.Has(key) {
		writeErr(w, http.StatusNotFound, "unknown city %q", key)
		return
	}
	from, ok := parseFrom(w, r)
	if !ok {
		return
	}
	p, ok := parseStreamParams(w, r)
	if !ok {
		return
	}
	c, err := s.reg.Get(key)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "city %q unavailable: %v", key, err)
		return
	}
	c.State.serveWAL(w, r, from, p)
}

// serveWAL writes one initial batch (snapshot handoff included when the
// resume point is behind the compaction horizon), then flushes frames as
// commits land. Mid-stream the response can only carry raw frames —
// headers and the snapshot section are spent — so any condition that
// needs them again (compaction moved the log past the cursor, a snapshot
// handoff installed, the life cap) simply ends the stream; the client
// reconnects into a fresh decision. A replication
// term change ends the stream too: the term was stamped into this
// response's headers at the top and cannot be restated, and after a
// promotion or fence the consumer must re-handshake against the node's
// new role rather than keep draining a response that claims the old one.
// A response writer that cannot flush would hold every frame back until
// the stream ends, so it gets a 500 instead.
//
// A ?fid= handshake feeds the server's slot table: the initial batch and
// every flushed run advance the follower's recorded position, heartbeats
// refresh its liveness — which is what lets compaction hold for exactly
// the followers that are alive and behind.
func (cs *cityState) serveWAL(w http.ResponseWriter, r *http.Request, from int64, p walStreamParams) {
	fl := telemetry.FlusherFor(w)
	if fl == nil {
		writeErr(w, http.StatusInternalServerError, "response writer cannot flush; /wal needs a streaming response")
		return
	}
	batch, err := initialBatch(cs.snapDir, cs.key, from, cs.wal.LastSeq())
	if err != nil {
		writeStreamErr(w, from, err)
		return
	}
	batch.Epoch, batch.EpochPrimary = cs.epochInfo()
	hb := p.hb
	cs.streams.open.Add(1)
	defer cs.streams.open.Add(-1)
	if err := replicate.WriteStream(w, batch); err != nil {
		return
	}
	fl.Flush()
	cursor := from
	if batch.Snapshot != nil && batch.SnapshotSeq > cursor {
		cursor = batch.SnapshotSeq
	}
	if n := len(batch.Frames); n > 0 {
		cursor = batch.Frames[n-1].Seq
	}
	cs.streams.frames.Add(int64(len(batch.Frames)))
	cs.slots.update(p.fid, cs.key, cursor, cs.wal.LastSeq())

	tail := newWALTail(cs.snapDir, cs.key)
	hbTimer := time.NewTimer(hb)
	defer hbTimer.Stop()
	life := time.NewTimer(maxStreamLife)
	defer life.Stop()
	ctx := r.Context()
	for {
		head, ch := cs.notify.await()
		if term, _ := cs.epochInfo(); term != batch.Epoch {
			// Promotion or fence mid-stream: end it. Promote bumps the term
			// before sealing (each seal wakes this notifier), so a consumer
			// can never be handed a frame committed after the seal under the
			// old term's headers.
			return
		}
		if head > cursor || cs.wal.LastSeq() > cursor {
			frames, ok := tail.next(cursor)
			if !ok {
				// The records past cursor left the log (a trim or a
				// snapshot install). End cleanly; the reconnect gets the
				// snapshot-vs-frames decision in a fresh response.
				return
			}
			if len(frames) > 0 {
				for _, fr := range frames {
					if _, err := w.Write(store.EncodeFrame(fr.Payload)); err != nil {
						return
					}
				}
				fl.Flush()
				cursor = frames[len(frames)-1].Seq
				cs.streams.frames.Add(int64(len(frames)))
				cs.slots.update(p.fid, cs.key, cursor, cs.wal.LastSeq())
				resetTimer(hbTimer, hb)
				continue
			}
			// Head advanced but the log shows nothing new past cursor
			// yet: wait for the next wake instead of spinning on the file.
		}
		select {
		case <-ch:
			cs.streams.wakeups.Inc()
		case <-hbTimer.C:
			if _, err := w.Write(replicate.HeartbeatFrame[:]); err != nil {
				return
			}
			fl.Flush()
			cs.streams.heartbeats.Inc()
			cs.slots.touch(p.fid, cs.key, cs.wal.LastSeq())
			hbTimer.Reset(hb)
		case <-life.C:
			return
		case <-ctx.Done():
			return
		}
	}
}

// resetTimer is the stop-drain-reset dance for a timer that may have
// fired while we were writing.
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// walTail is a push stream's incremental reader over the city's live log:
// it remembers the byte offset its last read ended at, so each commit
// wakeup reads only the new suffix instead of re-scanning the whole log
// (which would make a busy stream O(log²) over its lifetime). A trim
// invalidates the offset; next() detects that as a sequence mismatch and
// falls back to one full scan of the (freshly trimmed, small) log — and
// reports !ok when the records the cursor needs are no longer in the log
// at all.
type walTail struct {
	path string
	off  int64 // -1: offset unknown, full scan first
}

func newWALTail(dir, key string) *walTail {
	return &walTail{path: store.WALPath(dir, key), off: -1}
}

// next returns the dense run of frames directly after cursor that the
// log holds, or ok=false when the log cannot serve them (the stream must
// end and the client re-resolve). An empty result with
// ok=true means nothing new is visible yet — wait for the next wake. A
// torn last frame (the appender mid-write) just ends this read early;
// the offset parks before it and the next read retries.
func (t *walTail) next(cursor int64) ([]store.WALFrame, bool) {
	if t.off >= 0 {
		frames, off, err := store.ReadWALFramesAt(t.path, t.off)
		if err == nil && len(frames) > 0 && frames[0].Seq == cursor+1 && denseFrom(frames, cursor+1) {
			t.off = off
			return frames, true
		}
		if err == nil && len(frames) == 0 {
			// Nothing new at the remembered offset. Either the appender
			// has not reached the file yet (mid-frame) or a trim replaced
			// it under us; the full scan below settles it.
			sameEnd := off == t.off
			frames, off, err = store.ReadWALFramesAt(t.path, 0)
			if err != nil {
				return nil, false
			}
			out := framesAfter(frames, cursor)
			if len(out) == 0 && sameEnd {
				return nil, true // genuinely nothing new yet
			}
			return t.settle(out, off, cursor)
		}
		// Error or sequence mismatch: rescan from the top.
	}
	frames, off, err := store.ReadWALFramesAt(t.path, 0)
	if err != nil {
		return nil, false
	}
	return t.settle(framesAfter(frames, cursor), off, cursor)
}

// settle validates a full-scan result against the cursor: dense directly
// after it (serve), empty (wait), or gapped (the stream must end).
func (t *walTail) settle(out []store.WALFrame, off, cursor int64) ([]store.WALFrame, bool) {
	if len(out) == 0 {
		t.off = off
		return nil, true
	}
	if out[0].Seq != cursor+1 || !denseFrom(out, cursor+1) {
		return nil, false
	}
	t.off = off
	return out, true
}

// parseFrom reads the resume-point query parameter; on a bad value it
// writes the 400 and reports !ok.
func parseFrom(w http.ResponseWriter, r *http.Request) (int64, bool) {
	v := r.URL.Query().Get("from")
	if v == "" {
		return 0, true
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		writeErr(w, http.StatusBadRequest, "bad from %q", v)
		return 0, false
	}
	return n, true
}

// writeStreamErr maps an initialBatch failure onto the response status.
func writeStreamErr(w http.ResponseWriter, from int64, err error) {
	if errors.Is(err, errStreamAhead) {
		writeErr(w, http.StatusConflict, "follower at seq %d is ahead of this log", from)
		return
	}
	writeErr(w, http.StatusInternalServerError, "%v", err)
}

// initialBatch assembles a stream's initial batch: every committed record
// with sequence > from, last being the live head. It reads the log once,
// without locks, while the appender and a compaction keep running: a torn
// tail just ends the committed prefix. A record after from that the log
// no longer holds was trimmed, and a trim runs only once the snapshot
// covering it is durable, so the snapshot read after the log holds it.
func initialBatch(dir, key string, from, last int64) (*replicate.Batch, error) {
	if from > last {
		return nil, errStreamAhead
	}
	batch := &replicate.Batch{PrimarySeq: last}
	if from == last {
		// Caught up: the stream opens from the sequence counter alone,
		// without reading (or parsing) a byte of log.
		return batch, nil
	}
	frames, _, err := store.ReadWALFramesAt(store.WALPath(dir, key), 0)
	if err != nil {
		return nil, err
	}
	if len(frames) == 0 || frames[0].Seq > from+1 {
		// The records right after `from` were folded into the snapshot by
		// a compaction. Hand the snapshot off and ship the suffix beyond
		// its watermark.
		raw, snapSeq, err := store.ReadSnapshotRaw(dir, key)
		if err != nil {
			return nil, fmt.Errorf("snapshot handoff: %w", err)
		}
		if raw == nil {
			return nil, fmt.Errorf("no snapshot holds the records after seq %d", from)
		}
		batch.Snapshot, batch.SnapshotSeq = raw, snapSeq
		from = snapSeq
	}
	batch.Frames = framesAfter(frames, from)
	if !denseFrom(batch.Frames, from+1) {
		return nil, fmt.Errorf("log holds no dense run of records after seq %d", from)
	}
	return batch, nil
}

// framesAfter returns the suffix with sequence > from.
func framesAfter(frames []store.WALFrame, from int64) []store.WALFrame {
	for i, fr := range frames {
		if fr.Seq > from {
			return frames[i:]
		}
	}
	return nil
}

// denseFrom: the frames are exactly start, start+1, ... — a log holds
// dense sequences, so a hole means a read at an offset a trim invalidated
// (walTail) or a damaged log, and the batch would skip committed records.
func denseFrom(frames []store.WALFrame, start int64) bool {
	for i, fr := range frames {
		if fr.Seq != start+int64(i) {
			return false
		}
	}
	return true
}
