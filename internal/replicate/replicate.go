// Package replicate ships a city's write-ahead log from a primary server
// to follower replicas over HTTP, turning the single-process engine into
// a primary/standby pair: a follower holds `GET /cities/{city}/wal?from=
// {seq}` open and applies the framed records through the same function
// the restart path replays its log with (the Target's ApplyFrames), so a
// replica is — by construction — a restart that never stops happening.
//
// # Wire format
//
// A stream response reuses the WAL's CRC-framed record format verbatim
// (little-endian payload length, CRC32-Castagnoli, JSON payload): a
// follower could cat the body's frames onto a .wal file and recovery
// would replay it. The body is
//
//	<8-byte magic "GTREPv1\n">
//	[snapshot section, iff the X-GT-Snapshot-Seq header is present:
//	  <uint32 LE CRC32-Castagnoli(snapshot)> <uint64 LE length> <snapshot JSON>]
//	repeated WAL frames, exactly as they sit in the primary's log
//
// The snapshot section is the compaction handoff: when the follower's
// resume sequence has fallen behind the primary's compaction horizon (the
// records it needs now live only in the snapshot), the primary sends its
// sealed snapshot first and the log suffix after it. Response headers
// carry the primary's position:
//
//	X-GT-Primary-Seq:  last committed sequence when the stream opened
//	X-GT-Snapshot-Seq: watermark of the snapshot section, if present
//
// Delivery is at-least-once: a frame may arrive twice (a retry after a
// cut stream re-fetches from the last durable sequence), and sequence
// numbers — not delivery counts — are what make apply idempotent.
package replicate

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"grouptravel/internal/store"
)

// Stream magic: versions the body independently of the WAL file format.
var streamMagic = [8]byte{'G', 'T', 'R', 'E', 'P', 'v', '1', '\n'}

// Response headers (canonical MIME casing is applied by net/http).
const (
	HeaderPrimarySeq  = "X-GT-Primary-Seq"
	HeaderSnapshotSeq = "X-GT-Snapshot-Seq"
	// HeaderEpoch carries the replication term on both request and
	// response: each side stamps its highest known term, and whichever
	// side sees a higher one than its own adopts it (a writable node that
	// is not the term's owner fences itself read-only). Absent or "0"
	// means the sender predates any promotion. HeaderEpochPrimary names
	// the advertised URL of the node that owns the term — the fencing 403
	// hint and the supervisor's source of truth.
	HeaderEpoch        = "X-GT-Epoch"
	HeaderEpochPrimary = "X-GT-Epoch-Primary"
)

// snapshotHeaderLen frames the snapshot section: CRC32 + uint64 length.
const snapshotHeaderLen = 12

// maxSnapshotBytes bounds a snapshot section so a corrupt or hostile
// length prefix cannot force an unbounded allocation on the follower.
const maxSnapshotBytes = int64(1) << 31

// snapshotCRC shares the WAL's Castagnoli polynomial.
var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrWireCorrupt reports a frame (or snapshot section) that failed its
// checksum or arrived torn: the bytes before it are intact and usable,
// everything at and after it must be re-fetched. A follower applies the
// valid prefix and retries — a corrupt frame is never partially applied
// because it is never surfaced at all.
var ErrWireCorrupt = errors.New("replicate: corrupt frame on the wire")

// ErrFollowerAhead reports a 409 from the primary: the follower's resume
// sequence is beyond the primary's log head. That is divergence (a
// primary restored from older state, or a promoted follower pointed back
// at a demoted one), not lag; it needs an operator, not a retry.
var ErrFollowerAhead = errors.New("replicate: follower is ahead of the primary")

// ErrStaleEpoch reports a peer serving an older replication term than the
// follower already knows: the node it is talking to has been deposed (or
// lost its durable epoch state). Tailing it would replay pre-fencing
// writes the fleet has moved past — stop and re-resolve the primary.
var ErrStaleEpoch = errors.New("replicate: peer is serving a stale replication epoch")

// Batch is one run of a stream response: an optional snapshot handoff,
// log frames, and the head the primary announced.
type Batch struct {
	// Snapshot is the raw snapshot JSON of a compaction handoff (nil when
	// the resume point was still inside the primary's log). SnapshotSeq is
	// the WAL watermark it covers: frames at or below it are already
	// folded into the snapshot.
	Snapshot    []byte
	SnapshotSeq int64

	// Frames in log order, each carrying its decoded sequence number.
	Frames []store.WALFrame

	// PrimarySeq is the head the primary announced when it opened the
	// stream (X-GT-Primary-Seq); every batch of one stream repeats it.
	PrimarySeq int64

	// Epoch is the replication term the serving node reported (0 for a
	// pre-epoch fleet), EpochPrimary the advertised URL of the term's
	// owner. Followers persist a term the first time they see it so a
	// restart cannot be talked back to a deposed primary.
	Epoch        int64
	EpochPrimary string
}

// WriteStream serves one batch as a stream response body plus headers —
// the primary half of the protocol (internal/server's /wal endpoint).
func WriteStream(w http.ResponseWriter, b *Batch) error {
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(HeaderPrimarySeq, strconv.FormatInt(b.PrimarySeq, 10))
	if b.Epoch > 0 {
		h.Set(HeaderEpoch, strconv.FormatInt(b.Epoch, 10))
		if b.EpochPrimary != "" {
			h.Set(HeaderEpochPrimary, b.EpochPrimary)
		}
	}
	if b.Snapshot != nil {
		h.Set(HeaderSnapshotSeq, strconv.FormatInt(b.SnapshotSeq, 10))
	}
	if _, err := w.Write(streamMagic[:]); err != nil {
		return err
	}
	if b.Snapshot != nil {
		var head [snapshotHeaderLen]byte
		binary.LittleEndian.PutUint32(head[0:4], crc32.Checksum(b.Snapshot, snapshotCRC))
		binary.LittleEndian.PutUint64(head[4:12], uint64(len(b.Snapshot)))
		if _, err := w.Write(head[:]); err != nil {
			return err
		}
		if _, err := w.Write(b.Snapshot); err != nil {
			return err
		}
	}
	for _, fr := range b.Frames {
		if _, err := w.Write(store.EncodeFrame(fr.Payload)); err != nil {
			return err
		}
	}
	return nil
}

// HeartbeatFrame is the zero-length keepalive frame a push stream writes
// while idle: a frame header with length 0 and CRC 0 (CRC32 of the empty
// payload) and no body. Decoders skip it — it carries no record and no
// sequence, it only proves the wire is alive.
var HeartbeatFrame = [8]byte{}

// maxFrameBytes mirrors the store's per-record cap: a length prefix
// beyond it is corruption, not a large record.
const maxFrameBytes = 16 << 20

// streamReader decodes a stream response body incrementally: magic, the
// optional snapshot section, then one frame at a time — no whole-body
// slurp, so a push stream's frames decode (and apply) while the
// connection keeps delivering. Heartbeat frames are consumed silently.
type streamReader struct {
	br *bufio.Reader
}

func newStreamReader(r io.Reader) *streamReader {
	return &streamReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// readMagic consumes and verifies the stream magic. Any failure — wrong
// bytes, a body shorter than the magic — means this is not a stream
// response at all.
func (sr *streamReader) readMagic() error {
	var m [8]byte
	if _, err := io.ReadFull(sr.br, m[:]); err != nil || m != streamMagic {
		return fmt.Errorf("replicate: response is not a GTREPv1 stream")
	}
	return nil
}

// readSnapshot consumes the snapshot section (header, payload, CRC
// check). Corruption here voids the whole response: nothing before the
// snapshot is applicable, so there is no prefix to salvage.
func (sr *streamReader) readSnapshot() ([]byte, error) {
	var head [snapshotHeaderLen]byte
	if _, err := io.ReadFull(sr.br, head[:]); err != nil {
		return nil, fmt.Errorf("%w: torn snapshot header", ErrWireCorrupt)
	}
	sum := binary.LittleEndian.Uint32(head[0:4])
	n := int64(binary.LittleEndian.Uint64(head[4:12]))
	if n < 0 || n > maxSnapshotBytes {
		return nil, fmt.Errorf("%w: snapshot length %d", ErrWireCorrupt, n)
	}
	snap := make([]byte, n)
	if _, err := io.ReadFull(sr.br, snap); err != nil {
		return nil, fmt.Errorf("%w: torn snapshot", ErrWireCorrupt)
	}
	if crc32.Checksum(snap, snapshotCRC) != sum {
		return nil, fmt.Errorf("%w: snapshot CRC mismatch", ErrWireCorrupt)
	}
	return snap, nil
}

// next decodes the next frame, skipping heartbeats. io.EOF means the
// stream ended cleanly at a frame boundary; every other failure — torn
// frame, bad CRC, a mid-frame connection cut — is ErrWireCorrupt: the
// frames already returned are intact, everything after must re-fetch.
func (sr *streamReader) next() (store.WALFrame, error) {
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(sr.br, hdr[:]); err != nil {
			if err == io.EOF {
				return store.WALFrame{}, io.EOF
			}
			return store.WALFrame{}, fmt.Errorf("%w: %v", ErrWireCorrupt, err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 && sum == 0 {
			continue // heartbeat
		}
		if int64(n) > maxFrameBytes {
			return store.WALFrame{}, fmt.Errorf("%w: frame length %d exceeds cap %d", ErrWireCorrupt, n, maxFrameBytes)
		}
		buf := make([]byte, 8+int(n))
		copy(buf, hdr[:])
		if _, err := io.ReadFull(sr.br, buf[8:]); err != nil {
			return store.WALFrame{}, fmt.Errorf("%w: torn frame", ErrWireCorrupt)
		}
		payload, _, err := store.DecodeFrame(buf)
		if err != nil {
			return store.WALFrame{}, fmt.Errorf("%w: %v", ErrWireCorrupt, err)
		}
		seq, err := store.FrameSeq(payload)
		if err != nil {
			return store.WALFrame{}, fmt.Errorf("%w: %v", ErrWireCorrupt, err)
		}
		if seq < 1 {
			// A shipped record always carries the primary's stamp; a
			// seq-less frame cannot be resumed past and must not apply.
			return store.WALFrame{}, fmt.Errorf("%w: frame without a sequence number", ErrWireCorrupt)
		}
		return store.WALFrame{Seq: seq, Payload: payload}, nil
	}
}

// defaultStreamClient carries the push streams: keep-alives and idle
// pooling for the reconnect cycle, a header deadline for a dead primary —
// but no overall timeout, which would cut every healthy stream at the
// timeout mark. Liveness is the stall watchdog's job (heartbeats arrive
// on a known cadence; see Stream).
var defaultStreamClient = &http.Client{Transport: &http.Transport{
	MaxIdleConnsPerHost:   4,
	IdleConnTimeout:       90 * time.Second,
	ResponseHeaderTimeout: 30 * time.Second,
}}

// Client opens push streams against a primary's base URL.
type Client struct {
	// Base is the primary's base URL, e.g. "http://primary:8080".
	Base string
	// HTTP overrides the transport; a timeout-less keep-alive client when
	// nil.
	HTTP *http.Client
	// ID identifies this follower to the primary: Stream passes it as the
	// ?fid= handshake parameter so the primary can keep a per-follower
	// replication slot (position tracking + compaction holds). Optional —
	// an anonymous stream still replicates, it just isn't slot-tracked.
	ID string
	// EpochInfo, when set, supplies the follower's highest known
	// replication term and its owner; every stream request stamps them as
	// X-GT-Epoch / X-GT-Epoch-Primary so the serving node can discover it
	// has been deposed even from a follower's pull.
	EpochInfo func() (int64, string)
}

// stampEpoch adds the follower's known term to an outgoing request.
func (c *Client) stampEpoch(req *http.Request) {
	if c.EpochInfo == nil {
		return
	}
	if term, owner := c.EpochInfo(); term > 0 {
		req.Header.Set(HeaderEpoch, strconv.FormatInt(term, 10))
		if owner != "" {
			req.Header.Set(HeaderEpochPrimary, owner)
		}
	}
}

// checkEpoch compares a response's term against the follower's own. A
// serving node reporting a *lower* term than the follower already knows
// (including no term at all) is deposed or divergent — its log must not
// be applied.
func (c *Client) checkEpoch(resp *http.Response, city string) (int64, string, error) {
	respTerm, _ := strconv.ParseInt(resp.Header.Get(HeaderEpoch), 10, 64)
	respOwner := resp.Header.Get(HeaderEpochPrimary)
	if c.EpochInfo != nil {
		if known, _ := c.EpochInfo(); known > 0 && respTerm < known {
			return 0, "", fmt.Errorf("%w (city %s: peer term %d, known term %d)",
				ErrStaleEpoch, city, respTerm, known)
		}
	}
	return respTerm, respOwner, nil
}

// DefaultStreamHeartbeat is the keepalive cadence Stream requests when
// the caller does not choose.
const DefaultStreamHeartbeat = 2 * time.Second

// Stream opens a push stream for one city and invokes apply as batches
// arrive, until the server ends the stream (nil — reconnect and resume),
// the context is canceled, apply fails, or the wire corrupts. Decode and
// apply are pipelined: a goroutine decodes frames off the connection
// while the caller's apply runs, and consecutive frames that arrived
// during an apply coalesce into the next batch — so a follower persists
// them under one group-commit fsync instead of one each.
//
// The first apply comes right after the headers, before any frame: it
// carries the announced head (PrimarySeq) and, when the resume point is
// behind the primary's compaction horizon, the snapshot handoff. So even
// a caught-up caller gets one apply, and one that only needs the head
// (Follower.Sync) can stop there. A stall watchdog cancels the connection
// when nothing — frames or heartbeats — arrives for several heartbeat
// intervals: a primary lost to a partition looks like silence, and
// silence is the one thing a healthy stream never produces.
func (c *Client) Stream(ctx context.Context, city string, from int64, apply func(*Batch) error) error {
	hb := DefaultStreamHeartbeat
	hc := c.HTTP
	if hc == nil {
		hc = defaultStreamClient
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	u := fmt.Sprintf("%s/cities/%s/wal?from=%d&hb=%s",
		c.Base, url.PathEscape(city), from, hb)
	if c.ID != "" {
		u += "&fid=" + url.QueryEscape(c.ID)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("replicate: stream %s: %w", city, err)
	}
	c.stampEpoch(req)
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("replicate: stream %s: %w", city, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		return fmt.Errorf("%w (city %s, from %d)", ErrFollowerAhead, city, from)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("replicate: stream %s: %s: %s", city, resp.Status, msg)
	}
	respTerm, respOwner, err := c.checkEpoch(resp, city)
	if err != nil {
		return err
	}
	stall := 3*hb + 2*time.Second
	watchdog := time.AfterFunc(stall, cancel)
	defer watchdog.Stop()
	sr := newStreamReader(&touchReader{
		r:     resp.Body,
		touch: func() { watchdog.Reset(stall) },
	})
	if err := sr.readMagic(); err != nil {
		return err
	}
	intHeader := func(name string) int64 {
		v, _ := strconv.ParseInt(resp.Header.Get(name), 10, 64)
		return v
	}
	first := &Batch{PrimarySeq: intHeader(HeaderPrimarySeq), Epoch: respTerm, EpochPrimary: respOwner}
	if resp.Header.Get(HeaderSnapshotSeq) != "" {
		if first.Snapshot, err = sr.readSnapshot(); err != nil {
			return err
		}
		first.SnapshotSeq = intHeader(HeaderSnapshotSeq)
	}
	if err := apply(first); err != nil {
		return err
	}

	// Decode goroutine: frames flow through the channel while apply runs.
	frames := make(chan store.WALFrame, 256)
	decErr := make(chan error, 1)
	go func() {
		defer close(frames)
		for {
			fr, err := sr.next()
			if err != nil {
				decErr <- err
				return
			}
			select {
			case frames <- fr:
			case <-ctx.Done():
				decErr <- ctx.Err()
				return
			}
		}
	}()

	const maxApplyBatch = 512
	batch := make([]store.WALFrame, 0, 64)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		b := &Batch{Frames: batch, PrimarySeq: first.PrimarySeq, Epoch: respTerm, EpochPrimary: respOwner}
		err := apply(b)
		batch = batch[:0]
		return err
	}
	for fr := range frames {
		batch = append(batch, fr)
		// Greedy drain: everything the decoder got ahead on joins this
		// batch, up to a cap that bounds apply (and fsync) granularity.
	drain:
		for len(batch) < maxApplyBatch {
			select {
			case more, ok := <-frames:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		if err := flush(); err != nil {
			cancel()
			for range frames { // unblock the decoder
			}
			return err
		}
	}
	if err := flush(); err != nil {
		return err
	}
	err = <-decErr
	switch {
	case err == io.EOF:
		return nil // clean end: the server closed the stream; reconnect
	case ctx.Err() != nil && errors.Is(err, ErrWireCorrupt):
		// The watchdog (or caller) canceled mid-read; report the cancel,
		// not the cut it caused.
		return fmt.Errorf("replicate: stream %s: %w", city, ctx.Err())
	default:
		return err
	}
}

// touchReader resets the stall watchdog on every successful read — the
// liveness signal heartbeats exist to generate.
type touchReader struct {
	r     io.Reader
	touch func()
}

func (t *touchReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.touch()
	}
	return n, err
}

// retryBackoff bounds how fast a failing tailer hammers the primary.
func retryBackoff(attempt int, base time.Duration) time.Duration {
	d := base << min(attempt, 6)
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}
