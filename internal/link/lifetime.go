// Package link implements the paper's link-lifetime analytical framework
// (Sec. IV-A). Given the kinematics of a sender i and receiver j and the
// communication range r, it solves Eqn (4), d_t = r·I(i,j), for the first
// time the inter-vehicle distance reaches the range boundary:
//
//	S(t)  = ∫₀ᵗ v(x) dx                  (Eqn 1, distance travelled)
//	d_t   = S_i(t) − S_j(t) + d₀          (Eqn 2, inter-vehicle distance)
//	I(i,j)= 1 if d_t > 0, −1 otherwise    (Eqn 3, ahead indicator)
//	break when d_t = r · I(i,j)           (Eqn 4)
//
// Lifetime solves |d_t| = r, both signs of the indicator at once, and takes
// the earlier root.
//
// The solver covers the constant-speed case in closed form, the
// constant-acceleration case (with speeds clamped to [0, vmax], matching
// the paper's speed-limit v_m) piecewise in closed form, and arbitrary
// speed profiles numerically. The lifetime of a routing path is the
// minimum lifetime of its links.
package link

import (
	"math"

	"github.com/vanetlab/relroute/internal/geom"
)

// Forever is the lifetime reported for links that never break under the
// modelled kinematics (e.g. identical constant velocities).
const Forever = math.MaxFloat64

// Kinematics1D describes a vehicle's motion projected onto the road axis:
// position X in meters, speed V in m/s (signed: positive along the axis),
// and acceleration A in m/s².
type Kinematics1D struct {
	X, V, A float64
}

// speedBounds returns the clamp interval of a vehicle's signed speed. The
// sign of V encodes the direction of travel along the axis: a vehicle
// saturates at the speed limit in its own direction and brakes to a stop
// without reversing. Stationary vehicles may start moving either way.
func speedBounds(k Kinematics1D, vmax float64) (lo, hi float64) {
	switch {
	case k.V > 0:
		return 0, vmax
	case k.V < 0:
		return -vmax, 0
	default:
		return -vmax, vmax
	}
}

// displacement returns S(t) for clamped constant-acceleration motion:
// v(x) = clamp(V + A·x, lo, hi) with direction-preserving bounds.
func displacement(k Kinematics1D, t, vmax float64) float64 {
	if t <= 0 {
		return 0
	}
	lo, hi := speedBounds(k, vmax)
	v0 := clamp(k.V, lo, hi)
	if k.A == 0 {
		return v0 * t
	}
	// Time at which speed saturates (hits lo or hi).
	var vSat float64
	if k.A > 0 {
		vSat = hi
	} else {
		vSat = lo
	}
	tSat := (vSat - v0) / k.A
	if tSat < 0 {
		tSat = 0
	}
	if t <= tSat {
		return v0*t + 0.5*k.A*t*t
	}
	return v0*tSat + 0.5*k.A*tSat*tSat + vSat*(t-tSat)
}

// Lifetime returns the time until the i–j link breaks under clamped
// constant-acceleration motion, solving Eqn (4). It returns Forever when
// the distance never reaches r. Vehicles whose current distance already
// exceeds r have lifetime 0: the link is down.
func Lifetime(i, j Kinematics1D, r, vmax float64) float64 {
	if r <= 0 {
		return 0
	}
	d0 := i.X - j.X
	if math.Abs(d0) > r {
		return 0
	}
	// The relative displacement g(t) = d_t is piecewise quadratic with
	// breakpoints where either vehicle's speed saturates at 0 or vmax.
	// Walk the pieces in order and solve |g(t)| = r on each.
	breaks := saturationTimes(i, vmax)
	breaks = append(breaks, saturationTimes(j, vmax)...)
	breaks = append(breaks, 0)
	sortFloats(breaks)

	const horizon = 24 * 3600 // beyond a day the link is effectively stable
	prev := 0.0
	for idx := 0; idx <= len(breaks); idx++ {
		var end float64
		if idx < len(breaks) {
			end = breaks[idx]
		} else {
			end = horizon
		}
		if end <= prev {
			continue
		}
		if t, ok := solvePiece(i, j, prev, end, r, vmax); ok {
			return t
		}
		prev = end
	}
	return Forever
}

// solvePiece solves |d(t)| = r on [t0, t1] where both speeds evolve
// without saturating inside the open interval, so d(t) is a single
// quadratic there.
func solvePiece(i, j Kinematics1D, t0, t1, r, vmax float64) (float64, bool) {
	// Effective kinematics at t0.
	vi, ai := speedAt(i, t0, vmax)
	vj, aj := speedAt(j, t0, vmax)
	d0 := (i.X - j.X) + displacement(i, t0, vmax) - displacement(j, t0, vmax)
	dv := vi - vj
	da := ai - aj
	// d(t0+s) = d0 + dv·s + da/2·s², s in [0, t1-t0].
	span := t1 - t0
	best := math.Inf(1)
	for _, target := range [2]float64{r, -r} {
		for _, s := range quadRoots(0.5*da, dv, d0-target) {
			if s >= 0 && s <= span && s < best {
				best = s
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return t0 + best, true
}

// speedAt returns the speed and remaining acceleration of k at time t under
// clamping. The saturation comparison carries a small tolerance so that
// evaluation exactly at a saturation breakpoint (where floating-point
// error can leave v a hair short of the bound) does not extrapolate
// phantom acceleration into the following piece.
func speedAt(k Kinematics1D, t, vmax float64) (v, a float64) {
	const eps = 1e-9
	lo, hi := speedBounds(k, vmax)
	v0 := clamp(k.V, lo, hi)
	if k.A == 0 {
		return v0, 0
	}
	v = v0 + k.A*t
	if k.A > 0 && v >= hi-eps {
		return hi, 0
	}
	if k.A < 0 && v <= lo+eps {
		return lo, 0
	}
	return v, k.A
}

// saturationTimes returns the times at which k's speed hits a clamp bound.
func saturationTimes(k Kinematics1D, vmax float64) []float64 {
	if k.A == 0 {
		return nil
	}
	lo, hi := speedBounds(k, vmax)
	v0 := clamp(k.V, lo, hi)
	var bound float64
	if k.A > 0 {
		bound = hi
	} else {
		bound = lo
	}
	t := (bound - v0) / k.A
	if t <= 0 {
		return nil
	}
	return []float64{t}
}

// quadRoots returns the real roots of a·x² + b·x + c = 0. Degenerate
// (linear, constant) cases are handled.
func quadRoots(a, b, c float64) []float64 {
	r1, r2, n := quadRoots2(a, b, c)
	switch n {
	case 1:
		return []float64{r1}
	case 2:
		return []float64{r1, r2}
	default:
		return nil
	}
}

// quadRoots2 is the allocation-free form of quadRoots, for hot paths (the
// per-decision LifetimeVec behind the reliability plane's memo): it
// returns up to two real roots and their count, computed with the exact
// arithmetic of quadRoots so results stay bit-identical.
func quadRoots2(a, b, c float64) (r1, r2 float64, n int) {
	const eps = 1e-12
	if math.Abs(a) < eps {
		if math.Abs(b) < eps {
			return 0, 0, 0
		}
		return -c / b, 0, 1
	}
	disc := b*b - 4*a*c
	if disc < 0 {
		return 0, 0, 0
	}
	sq := math.Sqrt(disc)
	// Numerically stable form.
	var q float64
	if b >= 0 {
		q = -0.5 * (b + sq)
	} else {
		q = -0.5 * (b - sq)
	}
	r1 = q / a
	if sq == 0 {
		return r1, 0, 1
	}
	return r1, c / q, 2
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func sortFloats(s []float64) {
	// insertion sort: slices here hold at most three values.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// LifetimeVec returns the link lifetime for two vehicles moving with
// constant planar velocities: the first t ≥ 0 with |Δp + Δv·t| = r. This is
// the 2-D generalisation used by routers that consume beacon positions and
// velocities directly.
func LifetimeVec(pi, vi, pj, vj geom.Vec2, r float64) float64 {
	dp := pi.Sub(pj)
	dv := vi.Sub(vj)
	if dp.Len() > r {
		return 0
	}
	a := dv.LenSq()
	if a == 0 {
		return Forever
	}
	b := 2 * dp.Dot(dv)
	c := dp.LenSq() - r*r
	r1, r2, n := quadRoots2(a, b, c)
	best := math.Inf(1)
	if n >= 1 && r1 >= 0 && r1 < best {
		best = r1
	}
	if n >= 2 && r2 >= 0 && r2 < best {
		best = r2
	}
	if math.IsInf(best, 1) {
		return Forever
	}
	return best
}

// LifetimeNumeric integrates arbitrary speed profiles vi(t), vj(t) (signed
// speeds along the axis) with step dt and returns the first crossing of
// |d| = r within horizon, refined by bisection to dt/64 resolution. It
// returns Forever when no crossing occurs.
func LifetimeNumeric(vi, vj func(t float64) float64, d0, r, horizon, dt float64) float64 {
	if math.Abs(d0) > r {
		return 0
	}
	if dt <= 0 {
		dt = 0.01
	}
	d := d0
	t := 0.0
	for t < horizon {
		// trapezoidal step of the relative displacement
		next := t + dt
		rel0 := vi(t) - vj(t)
		rel1 := vi(next) - vj(next)
		dNext := d + 0.5*(rel0+rel1)*dt
		if math.Abs(dNext) >= r {
			// bisection refine within [t, next]
			lo, hi := t, next
			dLo := d
			for k := 0; k < 20; k++ {
				mid := 0.5 * (lo + hi)
				relM := vi(lo) - vj(lo)
				relMid := vi(mid) - vj(mid)
				dMid := dLo + 0.5*(relM+relMid)*(mid-lo)
				if math.Abs(dMid) >= r {
					hi = mid
				} else {
					lo = mid
					dLo = dMid
				}
			}
			return hi
		}
		d = dNext
		t = next
	}
	return Forever
}

// PathLifetime implements the paper's composition rule: "the lifetime of
// the routing path is the minimum lifetime of all links involved". An empty
// path lives forever (a node talking to itself).
func PathLifetime(links []float64) float64 {
	min := Forever
	for _, l := range links {
		if l < min {
			min = l
		}
	}
	return min
}
