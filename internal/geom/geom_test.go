package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecBasics(t *testing.T) {
	tests := []struct {
		name string
		got  Vec2
		want Vec2
	}{
		{"add", V(1, 2).Add(V(3, -1)), V(4, 1)},
		{"sub", V(1, 2).Sub(V(3, -1)), V(-2, 3)},
		{"scale", V(1, 2).Scale(-2), V(-2, -4)},
		{"unit-x", V(5, 0).Unit(), V(1, 0)},
		{"unit-zero", V(0, 0).Unit(), V(0, 0)},
		{"lerp-mid", Lerp(V(0, 0), V(2, 4), 0.5), V(1, 2)},
		{"lerp-end", Lerp(V(1, 1), V(3, 3), 1), V(3, 3)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if !almostEq(tc.got.X, tc.want.X, 1e-12) || !almostEq(tc.got.Y, tc.want.Y, 1e-12) {
				t.Errorf("got %v want %v", tc.got, tc.want)
			}
		})
	}
}

func TestDotLen(t *testing.T) {
	if got := V(1, 2).Dot(V(3, 4)); got != 11 {
		t.Errorf("dot = %v, want 11", got)
	}
	if got := V(3, 4).Len(); got != 5 {
		t.Errorf("len = %v, want 5", got)
	}
	if got := V(3, 4).LenSq(); got != 25 {
		t.Errorf("lensq = %v, want 25", got)
	}
	if got := V(0, 0).Dist(V(3, 4)); got != 5 {
		t.Errorf("dist = %v, want 5", got)
	}
}

func TestProject(t *testing.T) {
	if got := Project(V(3, 4), V(10, 0)); !almostEq(got, 3, 1e-12) {
		t.Errorf("project = %v, want 3", got)
	}
	if got := Project(V(3, 4), V(0, 2)); !almostEq(got, 4, 1e-12) {
		t.Errorf("project = %v, want 4", got)
	}
	if got := Project(V(3, 4), V(0, 0)); got != 0 {
		t.Errorf("project on zero axis = %v, want 0", got)
	}
}

func clampTest(v float64) float64 {
	if v > 1e6 {
		return 1e6
	}
	if v < -1e6 {
		return -1e6
	}
	return v
}

func TestDistanceProperties(t *testing.T) {
	// symmetry and triangle inequality
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := V(clampTest(ax), clampTest(ay))
		b := V(clampTest(bx), clampTest(by))
		c := V(clampTest(cx), clampTest(cy))
		if a.Dist(b) != b.Dist(a) {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegment(t *testing.T) {
	s := Segment{A: V(0, 0), B: V(10, 0)}
	if got := s.At(0.3); !almostEq(got.X, 3, 1e-12) {
		t.Errorf("At(0.3) = %v", got)
	}
	q, tt := s.ClosestPoint(V(3, 4))
	if !almostEq(q.X, 3, 1e-12) || !almostEq(q.Y, 0, 1e-12) || !almostEq(tt, 0.3, 1e-12) {
		t.Errorf("ClosestPoint = %v t=%v", q, tt)
	}
	// degenerate segment
	d := Segment{A: V(1, 1), B: V(1, 1)}
	q, tt = d.ClosestPoint(V(5, 5))
	if q != d.A || tt != 0 {
		t.Errorf("degenerate ClosestPoint = %v t=%v", q, tt)
	}
}

func TestClosestPointIsClosest(t *testing.T) {
	// property: the reported closest point is no farther than the
	// endpoints and any sampled interior point
	f := func(px, py float64) bool {
		s := Segment{A: V(0, 0), B: V(100, 35)}
		p := V(clampTest(px), clampTest(py))
		q, _ := s.ClosestPoint(p)
		d := q.Dist(p)
		for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
			if s.At(frac).Dist(p) < d-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(V(10, 20), V(0, 0)) // corners in any order
	if r.Min != V(0, 0) || r.Max != V(10, 20) {
		t.Fatalf("NewRect = %+v", r)
	}
	if !r.Contains(V(5, 5)) || r.Contains(V(11, 5)) || r.Contains(V(5, -1)) {
		t.Error("Contains wrong")
	}
	if r.Width() != 10 || r.Height() != 20 {
		t.Errorf("w/h = %v/%v", r.Width(), r.Height())
	}
	if r.Center() != V(5, 10) {
		t.Errorf("center = %v", r.Center())
	}
	e := r.Expand(2)
	if e.Min != V(-2, -2) || e.Max != V(12, 22) {
		t.Errorf("expand = %+v", e)
	}
	u := r.Union(NewRect(V(-5, 5), V(3, 30)))
	if u.Min != V(-5, 0) || u.Max != V(10, 30) {
		t.Errorf("union = %+v", u)
	}
}
