// Package interact implements §3.3 of the paper: the customization
// operators group members apply to a generated travel package —
//
//	REMOVE(i, CI)                 drop POI i from a Composite Item
//	ADD(i, CI)                    add POI i (closest candidates offered)
//	REPLACE(i, CI)                swap i for the closest same-category POI
//	GENERATE(RECTANGLE(x,y,w,h))  build a new valid, cohesive CI in an area
//
// — and the refinement of the group profile from those interactions
// (implicit feedback): g ← g + g⁺ − g⁻ with negative components clamped
// to zero, under either the batch strategy (pool all members' operations,
// update the group profile directly) or the individual strategy (refine
// each member's own profile, then re-aggregate with the consensus method).
package interact

import (
	"fmt"

	"grouptravel/internal/ci"
	"grouptravel/internal/core"
	"grouptravel/internal/dataset"
	"grouptravel/internal/geo"
	"grouptravel/internal/poi"
)

// OpKind identifies one of the §3.3 atomic operations.
type OpKind uint8

const (
	OpRemove OpKind = iota
	OpAdd
	OpReplace
	OpGenerate
)

// String returns the paper's operator name.
func (k OpKind) String() string {
	switch k {
	case OpRemove:
		return "REMOVE"
	case OpAdd:
		return "ADD"
	case OpReplace:
		return "REPLACE"
	case OpGenerate:
		return "GENERATE"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// ParseOpKind inverts String — used when deserializing persisted logs.
func ParseOpKind(s string) (OpKind, error) {
	switch s {
	case "REMOVE":
		return OpRemove, nil
	case "ADD":
		return OpAdd, nil
	case "REPLACE":
		return OpReplace, nil
	case "GENERATE":
		return OpGenerate, nil
	default:
		return 0, fmt.Errorf("interact: unknown op kind %q", s)
	}
}

// Op is one logged interaction. Added and Removed carry the POIs the
// operation effectively added to / removed from the package — REPLACE logs
// one of each, GENERATE logs all items of the new CI as added.
type Op struct {
	Kind    OpKind
	Member  int // index of the acting group member
	CIIndex int // affected CI (the new CI's index for GENERATE)
	Added   []*poi.POI
	Removed []*poi.POI
}

// Session is an interactive customization session over one travel package.
// All mutations go through the session so that every interaction is logged
// for profile refinement.
type Session struct {
	city *dataset.City
	tp   *core.TravelPackage
	log  []Op
}

// NewSession starts a customization session. The package is deep-copied at
// the CI level: the caller's TravelPackage is never mutated.
func NewSession(city *dataset.City, tp *core.TravelPackage) (*Session, error) {
	if city == nil || tp == nil {
		return nil, fmt.Errorf("interact: nil city or package")
	}
	cp := *tp
	cp.CIs = make([]*ci.CI, len(tp.CIs))
	for i, c := range tp.CIs {
		cp.CIs[i] = c.Clone()
	}
	return &Session{city: city, tp: &cp}, nil
}

// Package returns the session's current (customized) travel package.
func (s *Session) Package() *core.TravelPackage { return s.tp }

// Log returns the logged operations in application order (shared slice;
// do not mutate).
func (s *Session) Log() []Op { return s.log }

// SetLog replaces the session's interaction log. It exists for restoring a
// persisted session: the ops were already applied to the package before it
// was saved, so they are not re-applied — only the log, which drives
// profile refinement, is reinstated.
func (s *Session) SetLog(ops []Op) { s.log = append([]Op(nil), ops...) }

// Apply installs one op whose post-op CI was computed elsewhere — by the
// operator on a scratch session over this package, or read back from a
// log record — and logs it, without re-running the operator. GENERATE's
// CIIndex is the new CI's slot, so after is appended; every other op
// replaces the CI at its index. Amortized O(1): a restart replaying n ops
// onto one package stays linear in n.
func (s *Session) Apply(op Op, after *ci.CI) error {
	switch {
	case op.Kind == OpGenerate:
		if op.CIIndex != len(s.tp.CIs) {
			return fmt.Errorf("interact: generate CI index %d, package has %d CIs", op.CIIndex, len(s.tp.CIs))
		}
		s.tp.CIs = append(s.tp.CIs, after)
	case op.CIIndex < 0 || op.CIIndex >= len(s.tp.CIs):
		return fmt.Errorf("interact: op CI index %d out of range [0,%d)", op.CIIndex, len(s.tp.CIs))
	default:
		s.tp.CIs[op.CIIndex] = after
	}
	s.log = append(s.log, op)
	return nil
}

// LookupPOI resolves a POI id in the session's city, or nil — useful for
// moderation policies that inspect a request's target before it applies.
func (s *Session) LookupPOI(id int) *poi.POI { return s.city.POIs.ByID(id) }

func (s *Session) ciAt(idx int) (*ci.CI, error) {
	if idx < 0 || idx >= len(s.tp.CIs) {
		return nil, fmt.Errorf("interact: CI index %d out of range [0,%d)", idx, len(s.tp.CIs))
	}
	return s.tp.CIs[idx], nil
}

// Remove applies REMOVE(i, CI): drops the POI with id poiID from the CI at
// ciIdx, acting on behalf of member.
func (s *Session) Remove(member, ciIdx, poiID int) error {
	c, err := s.ciAt(ciIdx)
	if err != nil {
		return err
	}
	for i, it := range c.Items {
		if it.ID == poiID {
			c.Items = append(c.Items[:i:i], c.Items[i+1:]...)
			s.log = append(s.log, Op{Kind: OpRemove, Member: member, CIIndex: ciIdx, Removed: []*poi.POI{it}})
			return nil
		}
	}
	return fmt.Errorf("interact: POI %d not in CI %d", poiID, ciIdx)
}

// AddCandidates lists the closest POIs to the CI that satisfy the user's
// filter — "the closest items to CI satisfying the user filter are
// displayed for the user to choose from" (§3.3). typeFilter may be empty
// to accept any type; POIs already in the CI are excluded.
func (s *Session) AddCandidates(ciIdx int, cat poi.Category, typeFilter string, k int) ([]*poi.POI, error) {
	c, err := s.ciAt(ciIdx)
	if err != nil {
		return nil, err
	}
	return s.city.POIs.Nearest(c.Center(), k, &cat, func(p *poi.POI) bool {
		if c.Contains(p.ID) {
			return false
		}
		return typeFilter == "" || p.Type == typeFilter
	}), nil
}

// Add applies ADD(i, CI): inserts the POI with id poiID into the CI at
// ciIdx on behalf of member.
func (s *Session) Add(member, ciIdx, poiID int) error {
	c, err := s.ciAt(ciIdx)
	if err != nil {
		return err
	}
	p := s.city.POIs.ByID(poiID)
	if p == nil {
		return fmt.Errorf("interact: unknown POI %d", poiID)
	}
	if c.Contains(poiID) {
		return fmt.Errorf("interact: POI %d already in CI %d", poiID, ciIdx)
	}
	c.Items = append(c.Items, p)
	s.log = append(s.log, Op{Kind: OpAdd, Member: member, CIIndex: ciIdx, Added: []*poi.POI{p}})
	return nil
}

// Replace applies REPLACE(i, CI): swaps the POI with id poiID for the
// system's recommendation — "the closest POI j in terms of geographic
// distance and such that i.cat = j.cat" (§3.3) among POIs not already in
// the CI. It returns the replacement.
func (s *Session) Replace(member, ciIdx, poiID int) (*poi.POI, error) {
	c, err := s.ciAt(ciIdx)
	if err != nil {
		return nil, err
	}
	var old *poi.POI
	var pos int
	for i, it := range c.Items {
		if it.ID == poiID {
			old, pos = it, i
			break
		}
	}
	if old == nil {
		return nil, fmt.Errorf("interact: POI %d not in CI %d", poiID, ciIdx)
	}
	cat := old.Cat
	cands := s.city.POIs.Nearest(old.Coord, 1, &cat, func(p *poi.POI) bool {
		return p.ID != old.ID && !c.Contains(p.ID)
	})
	if len(cands) == 0 {
		return nil, fmt.Errorf("interact: no replacement available for POI %d", poiID)
	}
	neu := cands[0]
	c.Items[pos] = neu
	s.log = append(s.log, Op{
		Kind: OpReplace, Member: member, CIIndex: ciIdx,
		Added: []*poi.POI{neu}, Removed: []*poi.POI{old},
	})
	return neu, nil
}

// Generate applies GENERATE(RECTANGLE(...)): builds a new valid, cohesive
// CI centered in the rectangle and appends it to the package. Items inside
// the rectangle are preferred; if the rectangle alone cannot satisfy the
// query, the build falls back to the closest POIs around the rectangle
// center. The group profile of the package (if any) personalizes the new
// CI exactly like the original build.
func (s *Session) Generate(member int, rect geo.Rect) (*ci.CI, error) {
	builder := &ci.Builder{
		Coll:  s.city.POIs,
		Query: s.tp.Query,
		Group: s.tp.Group,
		Beta:  s.tp.Params.Beta,
		Gamma: s.tp.Params.Gamma,
		Norm:  s.city.POIs.Normalizer(),
	}
	if builder.Beta == 0 {
		builder.Beta = 1 // a zero-β package still wants a *cohesive* new CI
	}
	center := rect.Center()

	// First try: restrict to POIs inside the rectangle.
	outside := make(map[int]bool)
	for _, p := range s.city.POIs.All() {
		if !rect.Contains(p.Coord) {
			outside[p.ID] = true
		}
	}
	newCI, err := builder.Build(center, outside)
	if err != nil {
		// Fall back to an unrestricted build around the rectangle center.
		newCI, err = builder.Build(center, nil)
		if err != nil {
			return nil, fmt.Errorf("interact: GENERATE failed: %w", err)
		}
	}
	s.tp.CIs = append(s.tp.CIs, newCI)
	s.log = append(s.log, Op{
		Kind: OpGenerate, Member: member, CIIndex: len(s.tp.CIs) - 1,
		Added: append([]*poi.POI(nil), newCI.Items...),
	})
	return newCI, nil
}

// DeleteCI empties the CI at ciIdx by iteratively removing its items (the
// paper models CI deletion as repeated REMOVE, §3.3) and drops it from the
// package.
func (s *Session) DeleteCI(member, ciIdx int) error {
	c, err := s.ciAt(ciIdx)
	if err != nil {
		return err
	}
	for len(c.Items) > 0 {
		if err := s.Remove(member, ciIdx, c.Items[0].ID); err != nil {
			return err
		}
	}
	s.tp.CIs = append(s.tp.CIs[:ciIdx:ciIdx], s.tp.CIs[ciIdx+1:]...)
	return nil
}

// AddedRemoved pools the added and removed POIs across the given ops.
func AddedRemoved(ops []Op) (added, removed []*poi.POI) {
	for _, op := range ops {
		added = append(added, op.Added...)
		removed = append(removed, op.Removed...)
	}
	return added, removed
}

// OpsByMember splits an operation log per acting member (for the
// individual refinement strategy).
func OpsByMember(ops []Op) map[int][]Op {
	out := make(map[int][]Op)
	for _, op := range ops {
		out[op.Member] = append(out[op.Member], op)
	}
	return out
}
