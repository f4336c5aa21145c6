package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// This file is the frame codec and the read side of the write-ahead log
// for consumers other than restart recovery — most importantly log
// shipping (internal/replicate): a primary serves committed frames from
// its live log, and a follower decodes them with DecodeRecord and applies
// them through the same function restart recovery passes to ReplayWAL, so
// replication and crash recovery can never disagree about what a log
// means. The readers here are read-only and safe on a live, concurrently
// appended file: a torn tail is simply where the committed prefix ends,
// never something to repair from this side.

// ErrFrameCorrupt reports a frame whose checksum does not match its
// payload — a torn write on disk, or corruption on the wire.
var ErrFrameCorrupt = errors.New("store: frame CRC mismatch")

// ErrFrameTorn reports a frame cut off mid-bytes: the buffer ends before
// the frame's declared length.
var ErrFrameTorn = errors.New("store: torn frame")

// WALFrame is one framed record as it appears in a log or on the
// replication wire: the payload bytes plus the sequence number decoded
// from them. Payload aliases the buffer it was decoded from.
type WALFrame struct {
	Seq     int64
	Payload []byte
}

// WireLen is the frame's size on disk and on the wire (framing included).
func (f WALFrame) WireLen() int64 { return int64(walFrameLen + len(f.Payload)) }

// EncodeFrame frames one record payload exactly as the WAL writes it:
// little-endian payload length, CRC32-Castagnoli, payload.
func EncodeFrame(payload []byte) []byte {
	return appendFrame(make([]byte, 0, walFrameLen+len(payload)), payload)
}

// appendFrame appends payload's frame to buf: the one encoder of the
// frame header, behind Append, AppendFrames and the replication wire.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, walCRC))
	return append(buf, payload...)
}

// DecodeFrame splits the first frame off buf, returning its payload and
// the total bytes consumed. ErrFrameTorn means buf ends mid-frame (more
// bytes may still be in flight); ErrFrameCorrupt means the checksum
// failed — the frame, and everything after it, cannot be trusted.
func DecodeFrame(buf []byte) (payload []byte, n int, err error) {
	if len(buf) < walFrameLen {
		return nil, 0, ErrFrameTorn
	}
	length := int64(binary.LittleEndian.Uint32(buf[0:4]))
	if length > maxWALRecord {
		return nil, 0, fmt.Errorf("%w: length %d exceeds cap %d", ErrFrameCorrupt, length, maxWALRecord)
	}
	if int64(len(buf)) < int64(walFrameLen)+length {
		return nil, 0, ErrFrameTorn
	}
	payload = buf[walFrameLen : int64(walFrameLen)+length]
	if crc32.Checksum(payload, walCRC) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, 0, ErrFrameCorrupt
	}
	return payload, walFrameLen + int(length), nil
}

// FrameSeq decodes just the sequence number from a record payload — the
// one field framing-level readers (the cursor here, the replication wire
// parser) need without a full decode. 0 for records written before
// sequence stamping existed.
func FrameSeq(payload []byte) (int64, error) {
	var rec struct {
		Seq int64 `json:"seq"`
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return 0, fmt.Errorf("store: frame payload: %w", err)
	}
	return rec.Seq, nil
}

// ReadWALFramesAt reads the committed frames of a log file — the longest
// valid prefix — starting at byte offset off (0 or walHeaderLen for the
// first record), returning the frames plus the offset just past the last
// one: the incremental read a live push stream uses so a wakeup costs
// O(new bytes), not O(log). It never modifies the file, so it is safe on
// a live log an appender is still writing: a torn or corrupt tail just
// ends the prefix, exactly where replay would cut it. A file without a
// valid header is an error (the appender never produces one). The
// header is validated only when reading from the top; at an interior
// offset the caller's cursor may have been invalidated by a trim, in
// which case decoding fails (CRC over arbitrary bytes) or the sequence
// run breaks — both of which the caller detects and answers with a full
// rescan. A missing file or an offset at/past EOF yields no frames and
// next == off.
func ReadWALFramesAt(path string, off int64) ([]WALFrame, int64, error) {
	if off < walHeaderLen {
		off = walHeaderLen
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, off, nil
	}
	if err != nil {
		return nil, off, fmt.Errorf("store: read wal: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, off, fmt.Errorf("store: stat wal: %w", err)
	}
	if off == walHeaderLen {
		var magic [8]byte
		if _, err := f.ReadAt(magic[:], 0); err != nil || magic != walMagic {
			return nil, off, fmt.Errorf("store: wal %s has no valid header", path)
		}
	}
	if st.Size() <= off {
		return nil, off, nil
	}
	raw := make([]byte, st.Size()-off)
	n, err := f.ReadAt(raw, off)
	// A short read races a concurrent truncation; decode whatever arrived
	// — the committed prefix ends wherever decoding stops.
	raw = raw[:n]
	if err != nil && n == 0 {
		return nil, off, nil
	}
	var frames []WALFrame
	buf := raw
	for len(buf) > 0 {
		payload, n, err := DecodeFrame(buf)
		if err != nil {
			break
		}
		seq, err := FrameSeq(payload)
		if err != nil {
			break
		}
		frames = append(frames, WALFrame{Seq: seq, Payload: payload})
		buf = buf[n:]
		off += int64(n)
	}
	return frames, off, nil
}

// ReadSnapshotRaw returns a city's snapshot bytes plus the WAL sequence
// watermark recorded inside them — the handoff a primary ships to a
// follower that has fallen behind the log's compaction horizon. The bytes
// are not validated beyond extracting the watermark; the follower
// validates in full (LoadServerState) before installing. A missing
// snapshot returns (nil, 0, nil).
func ReadSnapshotRaw(dir, key string) ([]byte, int64, error) {
	raw, err := os.ReadFile(SnapshotPath(dir, key))
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("store: read snapshot: %w", err)
	}
	var head struct {
		WALSeq int64 `json:"walSeq"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		return nil, 0, fmt.Errorf("store: snapshot watermark: %w", err)
	}
	return raw, head.WALSeq, nil
}

// WriteSnapshotRaw atomically installs snapshot bytes received from a
// primary, exactly as WriteSnapshot installs one it encodes. The caller
// has already validated the bytes against the city.
func WriteSnapshotRaw(dir, key string, raw []byte) error {
	return writeFileAtomic(SnapshotPath(dir, key), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
}
