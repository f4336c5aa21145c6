package geo

import (
	"math"
	"testing"
	"testing/quick"

	"grouptravel/internal/rng"
)

// Paris landmarks used across the tests (same city as the paper's Table 1).
var (
	louvre    = Point{Lat: 48.8606, Lon: 2.3376}
	eiffel    = Point{Lat: 48.8584, Lon: 2.2945}
	montmart  = Point{Lat: 48.8867, Lon: 2.3431}
	notreDame = Point{Lat: 48.8530, Lon: 2.3499}
)

func TestHaversineKnownDistance(t *testing.T) {
	// Louvre to Eiffel Tower is about 3.15 km.
	d := Haversine(louvre, eiffel)
	if d < 3.0 || d > 3.3 {
		t.Fatalf("Louvre-Eiffel haversine = %v km, want ~3.15", d)
	}
	// Paris to New York is about 5837 km.
	ny := Point{Lat: 40.7128, Lon: -74.0060}
	d = Haversine(louvre, ny)
	if d < 5780 || d > 5900 {
		t.Fatalf("Paris-NY haversine = %v km, want ~5837", d)
	}
}

func TestHaversineZero(t *testing.T) {
	if d := Haversine(louvre, louvre); d != 0 {
		t.Fatalf("distance to self = %v, want 0", d)
	}
}

func TestHaversineSymmetry(t *testing.T) {
	if d1, d2 := Haversine(louvre, montmart), Haversine(montmart, louvre); math.Abs(d1-d2) > 1e-12 {
		t.Fatalf("haversine asymmetric: %v vs %v", d1, d2)
	}
}

// TestEquirectangularPrecision verifies the paper's §3.2 claim that the
// equirectangular approximation loses only ~0.1% precision for in-city
// distances.
func TestEquirectangularPrecision(t *testing.T) {
	src := rng.New(1)
	worst := 0.0
	for i := 0; i < 5000; i++ {
		a := Point{Lat: 48.80 + 0.12*src.Float64(), Lon: 2.25 + 0.17*src.Float64()}
		b := Point{Lat: 48.80 + 0.12*src.Float64(), Lon: 2.25 + 0.17*src.Float64()}
		h := Haversine(a, b)
		if h < 0.05 {
			continue // relative error meaningless at near-zero distances
		}
		e := Equirectangular(a, b)
		rel := math.Abs(e-h) / h
		if rel > worst {
			worst = rel
		}
	}
	if worst > 0.001 {
		t.Fatalf("equirectangular in-city relative error %v exceeds 0.1%%", worst)
	}
}

func TestEquirectangularPropertyQuick(t *testing.T) {
	src := rng.New(2)
	f := func(_ uint8) bool {
		a := Point{Lat: src.Range(40, 50), Lon: src.Range(-5, 10)}
		b := Point{Lat: a.Lat + src.Range(-0.1, 0.1), Lon: a.Lon + src.Range(-0.1, 0.1)}
		h, e := Haversine(a, b), Equirectangular(a, b)
		// Non-negative, symmetric, and close for short hops.
		if e < 0 || h < 0 {
			return false
		}
		if math.Abs(Equirectangular(b, a)-e) > 1e-12 {
			return false
		}
		return math.Abs(e-h) <= 0.002*h+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequalitySampled(t *testing.T) {
	src := rng.New(3)
	for i := 0; i < 2000; i++ {
		p := func() Point {
			return Point{Lat: src.Range(48.8, 48.92), Lon: src.Range(2.25, 2.42)}
		}
		a, b, c := p(), p(), p()
		if Equirectangular(a, c) > Equirectangular(a, b)+Equirectangular(b, c)+1e-9 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestCentroid(t *testing.T) {
	pts := []Point{{Lat: 0, Lon: 0}, {Lat: 2, Lon: 4}}
	c := Centroid(pts, nil)
	if c.Lat != 1 || c.Lon != 2 {
		t.Fatalf("centroid = %v, want (1,2)", c)
	}
	// Weighted: all mass on second point.
	c = Centroid(pts, []float64{0, 5})
	if c.Lat != 2 || c.Lon != 4 {
		t.Fatalf("weighted centroid = %v, want (2,4)", c)
	}
	// Zero weights fall back to the mean.
	c = Centroid(pts, []float64{0, 0})
	if c.Lat != 1 || c.Lon != 2 {
		t.Fatalf("zero-weight centroid = %v, want (1,2)", c)
	}
}

func TestCentroidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Centroid of empty set did not panic")
		}
	}()
	Centroid(nil, nil)
}

func TestWeberPointBetween(t *testing.T) {
	pts := []Point{louvre, eiffel, montmart, notreDame}
	w := WeberPoint(pts, nil, 50)
	r := BoundingRect(pts)
	if !r.Contains(w) {
		t.Fatalf("Weber point %v outside bounding rect %v", w, r)
	}
	// The Weber point must not be farther (in total distance) than the mean.
	tot := func(m Point) float64 {
		s := 0.0
		for _, p := range pts {
			s += Equirectangular(m, p)
		}
		return s
	}
	if tot(w) > tot(Centroid(pts, nil))+1e-9 {
		t.Fatalf("Weber point total distance %v exceeds centroid's %v", tot(w), tot(Centroid(pts, nil)))
	}
}

func TestRectContains(t *testing.T) {
	r, err := NewRect(Point{Lat: 48.90, Lon: 2.30}, 0.10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{Lat: 48.88, Lon: 2.35}, true},
		{Point{Lat: 48.90, Lon: 2.30}, true},  // corner inclusive
		{Point{Lat: 48.84, Lon: 2.35}, false}, // below
		{Point{Lat: 48.88, Lon: 2.45}, false}, // east
		{Point{Lat: 48.95, Lon: 2.35}, false}, // north
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNewRectRejectsNegative(t *testing.T) {
	if _, err := NewRect(Point{}, -1, 0); err == nil {
		t.Fatal("negative width accepted")
	}
	if _, err := NewRect(Point{}, 0, -0.5); err == nil {
		t.Fatal("negative height accepted")
	}
}

func TestBoundingRectCoversAll(t *testing.T) {
	src := rng.New(4)
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Point{Lat: src.Range(48.8, 48.92), Lon: src.Range(2.25, 2.42)}
	}
	r := BoundingRect(pts)
	for _, p := range pts {
		if !r.Contains(p) {
			t.Fatalf("bounding rect %v misses %v", r, p)
		}
	}
}

func TestRectCenter(t *testing.T) {
	r := Rect{Lat: 10, Lon: 20, Width: 4, Height: 2}
	c := r.Center()
	if c.Lat != 9 || c.Lon != 22 {
		t.Fatalf("center = %v, want (9,22)", c)
	}
}

func TestNormalizerBounds(t *testing.T) {
	src := rng.New(5)
	pts := make([]Point, 300)
	for i := range pts {
		pts[i] = Point{Lat: src.Range(48.8, 48.92), Lon: src.Range(2.25, 2.42)}
	}
	n := NormalizerFor(pts)
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j += 7 {
			d := n.Distance(pts[i], pts[j])
			if d < 0 || d > 1 {
				t.Fatalf("normalized distance %v out of [0,1]", d)
			}
		}
	}
}

func TestNormalizerDegenerate(t *testing.T) {
	n := NewNormalizer(0)
	if d := n.Distance(louvre, eiffel); d != 0 {
		t.Fatalf("degenerate normalizer returned %v, want 0", d)
	}
}

func TestMaxPairwiseVsApprox(t *testing.T) {
	src := rng.New(6)
	pts := make([]Point, 120)
	for i := range pts {
		pts[i] = Point{Lat: src.Range(48.8, 48.92), Lon: src.Range(2.25, 2.42)}
	}
	exact := MaxPairwiseDistance(pts)
	approx := ApproxMaxPairwiseDistance(pts)
	if approx < exact {
		t.Fatalf("approx max %v below exact max %v", approx, exact)
	}
	if approx > exact*math.Sqrt2*1.01 {
		t.Fatalf("approx max %v exceeds sqrt(2) bound over %v", approx, exact)
	}
}

func TestPointValid(t *testing.T) {
	if !louvre.Valid() {
		t.Fatal("Louvre coordinates reported invalid")
	}
	bad := []Point{{Lat: 91, Lon: 0}, {Lat: 0, Lon: -181}, {Lat: math.NaN(), Lon: 0}}
	for _, p := range bad {
		if p.Valid() {
			t.Fatalf("%v reported valid", p)
		}
	}
}

func TestMidpoint(t *testing.T) {
	m := Midpoint(Point{Lat: 0, Lon: 0}, Point{Lat: 2, Lon: 6})
	if m.Lat != 1 || m.Lon != 3 {
		t.Fatalf("midpoint = %v", m)
	}
}

// siteTolKm is the site kernel's stated agreement with Equirectangular:
// max(1e-9 km, 1e-11 × the distance).
func siteTolKm(d float64) float64 { return math.Max(1e-9, 1e-11*d) }

// FuzzSiteDistance checks the trigonometry-free site kernel against
// Equirectangular, its reference, on any pair of valid coordinates, and
// that it is exactly symmetric.
func FuzzSiteDistance(f *testing.F) {
	for _, pair := range [][4]float64{
		{90, 0, 90, 180},        // north pole, opposite meridians
		{-90, -180, -90, 180},   // south pole across the antimeridian
		{90, 0, -90, 0},         // pole to pole
		{0, 180, 0, -180},       // the antimeridian, both sides
		{10, 179.9, 10, -179.9}, // near it, the long way round
		{0, 0, 0, 0},            // (0, 0) to itself
		{0, 0, 6e-159, 0},       // (0, 0) to a subnormal-square neighbour
		{louvre.Lat, louvre.Lon, eiffel.Lat, eiffel.Lon},
		{montmart.Lat, montmart.Lon, notreDame.Lat, notreDame.Lon},
		{41.8902, 12.4922, 41.9029, 12.4534}, // Rome, in-city
	} {
		f.Add(pair[0], pair[1], pair[2], pair[3])
	}
	f.Fuzz(func(t *testing.T, lat1, lon1, lat2, lon2 float64) {
		a, b := Point{Lat: lat1, Lon: lon1}, Point{Lat: lat2, Lon: lon2}
		if !a.Valid() || !b.Valid() {
			t.Skip()
		}
		sa, sb := NewSite(a), NewSite(b)
		got, want := sa.Distance(sb), Equirectangular(a, b)
		if math.Abs(got-want) > siteTolKm(want) {
			t.Fatalf("site distance %v to %v = %.17g km, Equirectangular %.17g (error %.3g)", a, b, got, want, got-want)
		}
		if back := sb.Distance(sa); back != got {
			t.Fatalf("site distance not symmetric: %.17g vs %.17g", got, back)
		}
	})
}

// TestSiteDistanceNormalized: SiteDistance is Distance on sites — the
// same value within the kernel's tolerance, the same clamp to 1, and 0
// under a degenerate normalizer.
func TestSiteDistanceNormalized(t *testing.T) {
	src := rng.New(12)
	for _, max := range []float64{0.5, 3, 15} { // km; 0.5 clamps most pairs
		n := NewNormalizer(max)
		for i := 0; i < 500; i++ {
			a := Point{Lat: src.Range(48.8, 48.92), Lon: src.Range(2.25, 2.42)}
			b := Point{Lat: src.Range(48.8, 48.92), Lon: src.Range(2.25, 2.42)}
			got, want := n.SiteDistance(NewSite(a), NewSite(b)), n.Distance(a, b)
			if got < 0 || got > 1 || math.Abs(got-want) > siteTolKm(Equirectangular(a, b))/max {
				t.Fatalf("max %v: SiteDistance %v to %v = %v, Distance %v", max, a, b, got, want)
			}
		}
	}
	if d := NewNormalizer(0).SiteDistance(NewSite(louvre), NewSite(eiffel)); d != 0 {
		t.Fatalf("degenerate normalizer returned %v, want 0", d)
	}
}
