package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"grouptravel/internal/core"
	"grouptravel/internal/dataset"
	"grouptravel/internal/interact"
	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
)

// This file persists the full serving state of one city — every registered
// group and every built package — so a server restart reconstructs its
// registries instead of dropping them. Packages reference POIs by id and
// re-resolve against the city on load, exactly like LoadPackage. A
// group's memoized consensus profiles are not persisted: they are
// derivable from its members (consensus.GroupProfile is deterministic),
// and a restarted server recomputes them on first use. A snapshot that
// still carries them (the "profiles" key of older writers) loads; the key
// is ignored.

// GroupRecord is one registered group as the server holds it.
type GroupRecord struct {
	ID    int
	Group *profile.Group
}

// PackageRecord is one built package with its serving metadata.
type PackageRecord struct {
	ID      int
	GroupID int
	Method  string // consensus name the package was built with
	// Weights are the per-member consensus weights the package was built
	// with; nil for an unweighted build. Individual refinement
	// re-aggregates the refined members with them.
	Weights []float64
	Package *core.TravelPackage
	// Ops is the customization log of the package's session. The ops were
	// already applied to Package when it was saved; persisting the log
	// keeps profile refinement working across restarts.
	Ops []interact.Op
}

// ServerState is everything a city's serving layer must survive a restart:
// id allocation plus both registries. WALSeq is the write-ahead-log
// sequence watermark a compaction snapshot covers — replay skips log
// records at or below it, so recovery is exact no matter where between
// the snapshot write and the trim a crash landed.
type ServerState struct {
	City     string
	NextID   int
	WALSeq   int64
	Groups   []GroupRecord
	Packages []PackageRecord
}

type groupRecordJSON struct {
	ID    int       `json:"id"`
	Group groupJSON `json:"group"`
}

type packageRecordJSON struct {
	ID      int         `json:"id"`
	GroupID int         `json:"groupId"`
	Method  string      `json:"method"`
	Weights []float64   `json:"weights,omitempty"`
	Package packageJSON `json:"package"`
	Ops     []opJSON    `json:"ops,omitempty"`
}

// opJSON is one logged customization op; POIs are referenced by id.
type opJSON struct {
	Kind    string `json:"kind"` // REMOVE | ADD | REPLACE | GENERATE
	Member  int    `json:"member"`
	CI      int    `json:"ci"`
	Added   []int  `json:"added,omitempty"`
	Removed []int  `json:"removed,omitempty"`
}

func opsToJSON(ops []interact.Op) []opJSON {
	out := make([]opJSON, 0, len(ops))
	for _, op := range ops {
		oj := opJSON{Kind: op.Kind.String(), Member: op.Member, CI: op.CIIndex}
		for _, p := range op.Added {
			oj.Added = append(oj.Added, p.ID)
		}
		for _, p := range op.Removed {
			oj.Removed = append(oj.Removed, p.ID)
		}
		out = append(out, oj)
	}
	return out
}

// opsFromJSON rebuilds a package's op log; members are validated against
// the owning group's size so a tampered log cannot poison refinement.
func opsFromJSON(in []opJSON, city *dataset.City, groupSize int) ([]interact.Op, error) {
	out := make([]interact.Op, 0, len(in))
	for i, oj := range in {
		if oj.Member >= groupSize {
			return nil, fmt.Errorf("store: op %d member/ci out of range", i)
		}
		op, err := opFromJSON(oj, city)
		if err != nil {
			return nil, fmt.Errorf("store: op %d: %w", i, err)
		}
		out = append(out, op)
	}
	return out, nil
}

// opFromJSON rebuilds one logged op against the city. Its member is not
// checked against the group's size: that needs the group, which only the
// caller knows.
func opFromJSON(oj opJSON, city *dataset.City) (interact.Op, error) {
	kind, err := interact.ParseOpKind(oj.Kind)
	if err != nil {
		return interact.Op{}, err
	}
	if oj.Member < 0 || oj.CI < 0 {
		return interact.Op{}, fmt.Errorf("member/ci out of range")
	}
	op := interact.Op{Kind: kind, Member: oj.Member, CIIndex: oj.CI}
	resolve := func(ids []int) ([]*poi.POI, error) {
		var pois []*poi.POI
		for _, id := range ids {
			p := city.POIs.ByID(id)
			if p == nil {
				return nil, fmt.Errorf("references unknown POI %d", id)
			}
			pois = append(pois, p)
		}
		return pois, nil
	}
	if op.Added, err = resolve(oj.Added); err != nil {
		return interact.Op{}, err
	}
	if op.Removed, err = resolve(oj.Removed); err != nil {
		return interact.Op{}, err
	}
	return op, nil
}

// stateHeadJSON is a snapshot's header: everything but the two record
// arrays, which SaveServerState streams after it.
type stateHeadJSON struct {
	Version int    `json:"version"`
	City    string `json:"city"`
	NextID  int    `json:"nextId"`
	WALSeq  int64  `json:"walSeq,omitempty"`
}

type serverStateJSON struct {
	stateHeadJSON
	Groups   []groupRecordJSON   `json:"groups"`
	Packages []packageRecordJSON `json:"packages"`
}

// snapshotBufSize is SaveServerState's write buffer: however large the
// city, no write it issues is larger, unless one record's encoding is.
const snapshotBufSize = 64 << 10

// SaveServerState writes a city's full serving state as versioned JSON.
// The document is streamed — the header, then one group or package record
// at a time, each on its own line, through a buffered writer — so the
// memory it takes is one record's encoding plus the buffer, not a copy of
// the city. Records are not indented.
func SaveServerState(w io.Writer, st *ServerState) error {
	if st == nil {
		return fmt.Errorf("store: nil server state")
	}
	// Reject a nil entity before the first byte is written.
	for _, gr := range st.Groups {
		if gr.Group == nil {
			return fmt.Errorf("store: group %d is nil", gr.ID)
		}
	}
	for _, pr := range st.Packages {
		if pr.Package == nil {
			return fmt.Errorf("store: package %d is nil", pr.ID)
		}
	}
	head, err := json.Marshal(stateHeadJSON{Version: Version, City: st.City, NextID: st.NextID, WALSeq: st.WALSeq})
	if err != nil {
		return err
	}
	// A bufio.Writer keeps its first write error and returns it from
	// every later call, so the writes below report through Encode or
	// Flush.
	bw := bufio.NewWriterSize(w, snapshotBufSize)
	enc := json.NewEncoder(bw)
	// The header object stays open: its closing brace follows the arrays.
	bw.Write(head[:len(head)-1])
	bw.WriteString(`,"groups":[`)
	for i, gr := range st.Groups {
		if i > 0 {
			bw.WriteByte(',')
		}
		if err := enc.Encode(groupRecordJSON{ID: gr.ID, Group: groupToJSON(gr.Group)}); err != nil {
			return err
		}
	}
	bw.WriteString(`],"packages":[`)
	for i, pr := range st.Packages {
		if i > 0 {
			bw.WriteByte(',')
		}
		if err := enc.Encode(packageRecordJSON{
			ID: pr.ID, GroupID: pr.GroupID, Method: pr.Method, Weights: pr.Weights,
			Package: packageToJSON(pr.Package),
			Ops:     opsToJSON(pr.Ops),
		}); err != nil {
			return err
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// LoadServerState reads a state snapshot and re-resolves it against the
// city. Snapshots may be hand-edited or corrupted, so everything is
// validated: the version and city name must match, ids must be positive
// and unique, NextID must clear every id (or id allocation would collide
// after restart), every package must reference a loaded group and carry
// one weight per member of it when weighted, and all profiles and POI ids
// are checked against the city's schema and dataset. The whole document
// is decoded at once: loading runs at recovery and handoff, not on the
// serving path.
func LoadServerState(r io.Reader, city *dataset.City) (*ServerState, error) {
	if city == nil || city.POIs == nil {
		return nil, fmt.Errorf("store: nil city")
	}
	var in serverStateJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("store: decode server state: %w", err)
	}
	if in.Version > Version {
		return nil, fmt.Errorf("store: server state format v%d newer than supported v%d", in.Version, Version)
	}
	if in.City != city.Name {
		return nil, fmt.Errorf("store: snapshot is for city %q, got %q", in.City, city.Name)
	}
	if in.NextID < 1 {
		// Adopting nextId < 1 would make the server allocate ids its own
		// next snapshot rejects as out of range.
		return nil, fmt.Errorf("store: nextId %d out of range", in.NextID)
	}
	if in.WALSeq < 0 {
		return nil, fmt.Errorf("store: walSeq %d out of range", in.WALSeq)
	}
	st := &ServerState{City: in.City, NextID: in.NextID, WALSeq: in.WALSeq}
	seen := make(map[int]bool, len(in.Groups)+len(in.Packages))
	takeID := func(id int, what string) error {
		if id < 1 {
			return fmt.Errorf("store: %s id %d out of range", what, id)
		}
		if seen[id] {
			return fmt.Errorf("store: duplicate id %d (%s)", id, what)
		}
		if id >= in.NextID {
			return fmt.Errorf("store: %s id %d not below nextId %d", what, id, in.NextID)
		}
		seen[id] = true
		return nil
	}
	groupSizes := make(map[int]int, len(in.Groups))
	for _, gj := range in.Groups {
		if err := takeID(gj.ID, "group"); err != nil {
			return nil, err
		}
		g, err := groupFromJSON(gj.Group, city.Schema)
		if err != nil {
			return nil, fmt.Errorf("store: group %d: %w", gj.ID, err)
		}
		groupSizes[gj.ID] = g.Size()
		st.Groups = append(st.Groups, GroupRecord{ID: gj.ID, Group: g})
	}
	for _, pj := range in.Packages {
		if err := takeID(pj.ID, "package"); err != nil {
			return nil, err
		}
		size, ok := groupSizes[pj.GroupID]
		if !ok {
			return nil, fmt.Errorf("store: package %d references unknown group %d", pj.ID, pj.GroupID)
		}
		if len(pj.Weights) > 0 && len(pj.Weights) != size {
			return nil, fmt.Errorf("store: package %d has %d weights for a group of %d", pj.ID, len(pj.Weights), size)
		}
		tp, err := packageFromJSON(pj.Package, city)
		if err != nil {
			return nil, fmt.Errorf("store: package %d: %w", pj.ID, err)
		}
		ops, err := opsFromJSON(pj.Ops, city, size)
		if err != nil {
			return nil, fmt.Errorf("store: package %d: %w", pj.ID, err)
		}
		st.Packages = append(st.Packages, PackageRecord{
			ID: pj.ID, GroupID: pj.GroupID, Method: pj.Method, Weights: pj.Weights, Package: tp, Ops: ops,
		})
	}
	sort.Slice(st.Groups, func(i, j int) bool { return st.Groups[i].ID < st.Groups[j].ID })
	sort.Slice(st.Packages, func(i, j int) bool { return st.Packages[i].ID < st.Packages[j].ID })
	return st, nil
}

// SnapshotPath is the canonical snapshot location for a city key inside a
// snapshot directory.
func SnapshotPath(dir, key string) string {
	return filepath.Join(dir, key+".state.json")
}

// IsStateFile reports whether name, a file's base name, is one this
// package keeps in a state directory: a snapshot, an epoch, a log or an
// earlier version's sealed segment, a temp file of an atomic write, or a
// quarantined copy. A directory that holds other files too — a server's data
// directory may double as its snapshot directory — skips these.
func IsStateFile(name string) bool {
	for _, suffix := range []string{".state.json", ".epoch.json", ".wal", ".wal.pending", ".tmp", ".corrupt"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// WriteSnapshot atomically persists a city's state under dir (see
// writeFileAtomic), so readers — a concurrently restarting server
// included — never observe a torn snapshot. It returns the snapshot time.
func WriteSnapshot(dir, key string, st *ServerState) (time.Time, error) {
	if err := writeFileAtomic(SnapshotPath(dir, key), func(w io.Writer) error { return SaveServerState(w, st) }); err != nil {
		return time.Time{}, err
	}
	return time.Now(), nil
}

// writeFileAtomic replaces path with what write produces: a temp file
// beside it is written, fsynced, closed and renamed over path, then the
// directory is fsynced, so a crash never surfaces torn content or loses
// a write reported done. Every step's error is returned.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f, err := os.CreateTemp(dir, strings.TrimSuffix(filepath.Base(path), ".json")+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("store: write %s: %w", filepath.Base(path), err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the entries that renames and
// creates made in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}

// CorruptSnapshotError marks a snapshot whose content failed decoding or
// validation — as opposed to a transient I/O failure reading it, which
// callers should retry rather than treat as data corruption.
type CorruptSnapshotError struct{ Err error }

func (e *CorruptSnapshotError) Error() string {
	return fmt.Sprintf("store: corrupt snapshot: %v", e.Err)
}
func (e *CorruptSnapshotError) Unwrap() error { return e.Err }

// ReadSnapshot loads a city's state from dir. A missing snapshot is not an
// error: it returns (nil, nil) so first boots start empty. The file is
// read in full before decoding so that I/O errors (retryable) are
// distinguishable from content errors (*CorruptSnapshotError).
func ReadSnapshot(dir, key string, city *dataset.City) (*ServerState, error) {
	raw, err := os.ReadFile(SnapshotPath(dir, key))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	st, err := LoadServerState(bytes.NewReader(raw), city)
	if err != nil {
		return nil, &CorruptSnapshotError{Err: err}
	}
	return st, nil
}
