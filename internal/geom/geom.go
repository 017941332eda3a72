// Package geom provides the planar geometry primitives used throughout the
// simulator: 2-D vectors, line segments, rectangles, and the projection the
// paper's direction-decomposition rule (Sec. IV-A-2, Fig. 4) is built on.
package geom

import (
	"fmt"
	"math"
)

// Vec2 is a point or displacement in the simulation plane. Units are meters
// for positions and meters/second for velocities.
type Vec2 struct {
	X, Y float64
}

// V is shorthand for constructing a Vec2.
func V(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by k.
func (v Vec2) Scale(k float64) Vec2 { return Vec2{v.X * k, v.Y * k} }

// Dot returns the dot product v · w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Len returns the Euclidean norm of v.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Y) }

// LenSq returns the squared Euclidean norm of v. It avoids the sqrt when
// only comparisons are needed.
func (v Vec2) LenSq() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Len() }

// DistSq returns the squared distance between v and w.
func (v Vec2) DistSq(w Vec2) float64 { return v.Sub(w).LenSq() }

// Unit returns the unit vector in the direction of v. The zero vector is
// returned unchanged so callers never divide by zero.
func (v Vec2) Unit() Vec2 {
	l := v.Len()
	if l == 0 {
		return Vec2{}
	}
	return Vec2{v.X / l, v.Y / l}
}

// IsZero reports whether both components are exactly zero.
func (v Vec2) IsZero() bool { return v.X == 0 && v.Y == 0 }

// String implements fmt.Stringer.
func (v Vec2) String() string { return fmt.Sprintf("(%.2f, %.2f)", v.X, v.Y) }

// Lerp linearly interpolates between a and b: result = a + t*(b-a).
func Lerp(a, b Vec2, t float64) Vec2 {
	return Vec2{a.X + t*(b.X-a.X), a.Y + t*(b.Y-a.Y)}
}

// Project returns the scalar projection of v onto the direction of axis,
// i.e. the signed length of v along axis. A zero axis yields 0.
func Project(v, axis Vec2) float64 {
	u := axis.Unit()
	return v.Dot(u)
}

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Vec2
}

// Len returns the length of the segment.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// At returns the point a fraction t along the segment (t in [0,1] stays on
// the segment; values outside extrapolate).
func (s Segment) At(t float64) Vec2 { return Lerp(s.A, s.B, t) }

// ClosestPoint returns the point on the segment closest to p and the
// parameter t in [0,1] at which it occurs.
func (s Segment) ClosestPoint(p Vec2) (Vec2, float64) {
	ab := s.B.Sub(s.A)
	denom := ab.LenSq()
	if denom == 0 {
		return s.A, 0
	}
	t := p.Sub(s.A).Dot(ab) / denom
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return s.At(t), t
}

// Rect is an axis-aligned rectangle, used for zones (Fig. 6) and world
// bounds. Min is the lower-left corner and Max the upper-right.
type Rect struct {
	Min, Max Vec2
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Vec2) Rect {
	return Rect{
		Min: Vec2{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Vec2{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Contains reports whether p lies inside the rectangle (inclusive).
func (r Rect) Contains(p Vec2) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the midpoint of the rectangle.
func (r Rect) Center() Vec2 {
	return Vec2{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Expand grows the rectangle by m meters on every side.
func (r Rect) Expand(m float64) Rect {
	return Rect{
		Min: Vec2{r.Min.X - m, r.Min.Y - m},
		Max: Vec2{r.Max.X + m, r.Max.Y + m},
	}
}

// Union returns the smallest rectangle covering both r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		Min: Vec2{math.Min(r.Min.X, o.Min.X), math.Min(r.Min.Y, o.Min.Y)},
		Max: Vec2{math.Max(r.Max.X, o.Max.X), math.Max(r.Max.Y, o.Max.Y)},
	}
}
