package link

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/vanetlab/relroute/internal/geom"
)

const (
	testRange = 250.0
	testVMax  = 40.0
)

func TestLifetimeConstantSpeed(t *testing.T) {
	tests := []struct {
		name string
		i, j Kinematics1D
		want float64
	}{
		// i behind j by 100 m, closing at 5 m/s: must first catch up 100m
		// then pull ahead 250 m => (250-(-100))/5 = 70? No: d0 = -100,
		// break at d=+250 if dv>0: t = (250-(-100))/5 = 70.
		{"closing-from-behind", Kinematics1D{X: -100, V: 30}, Kinematics1D{X: 0, V: 25}, 70},
		// i ahead by 100, pulling away at 5: (250-100)/5 = 30
		{"pulling-away-ahead", Kinematics1D{X: 100, V: 30}, Kinematics1D{X: 0, V: 25}, 30},
		// i behind by 100, falling back at 5: reaches -250: (250-100)/5 = 30
		{"falling-behind", Kinematics1D{X: -100, V: 25}, Kinematics1D{X: 0, V: 30}, 30},
		// equal speeds: never breaks
		{"equal-speeds", Kinematics1D{X: -100, V: 30}, Kinematics1D{X: 0, V: 30}, Forever},
		// opposite directions (projected): j backwards at 25, i forward 25:
		// closing at 50 from -100 → breaks at +250: 350/50 = 7
		{"opposite", Kinematics1D{X: -100, V: 25}, Kinematics1D{X: 0, V: 0}, 14},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Lifetime(tc.i, tc.j, testRange, testVMax)
			if tc.want == Forever {
				if got != Forever {
					t.Fatalf("lifetime = %v, want Forever", got)
				}
				return
			}
			if math.Abs(got-tc.want) > 1e-9 {
				t.Fatalf("lifetime = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestLifetimeOutOfRange(t *testing.T) {
	i := Kinematics1D{X: 300, V: 30}
	j := Kinematics1D{X: 0, V: 30}
	if got := Lifetime(i, j, testRange, testVMax); got != 0 {
		t.Fatalf("already-broken link lifetime = %v, want 0", got)
	}
	if got := Lifetime(i, j, 0, testVMax); got != 0 {
		t.Fatalf("zero range lifetime = %v, want 0", got)
	}
}

func TestLifetimeWithAcceleration(t *testing.T) {
	// i starts equal speed but accelerates at 1 m/s² until vmax=40 from 30.
	// Gap grows quadratically: d(t) = 0.5·t² until saturation at t=10
	// (d=50), then linearly at 10 m/s. Break at 250: 50 + 10(t-10) = 250
	// → t = 30.
	i := Kinematics1D{X: 0, V: 30, A: 1}
	j := Kinematics1D{X: 0, V: 30}
	got := Lifetime(i, j, testRange, testVMax)
	if math.Abs(got-30) > 1e-9 {
		t.Fatalf("lifetime = %v, want 30", got)
	}
}

func TestLifetimeDecelerationToStop(t *testing.T) {
	// j brakes to a stop; i keeps 20 m/s. j stops after 2 s having moved
	// 10+... v0=10,a=-5: stops at t=2 (distance 10). i gains afterwards at
	// 20 m/s.
	i := Kinematics1D{X: 0, V: 20}
	j := Kinematics1D{X: 0, V: 10, A: -5}
	got := Lifetime(i, j, testRange, testVMax)
	// relative displacement: ∫(20 - v_j). At t=2: i moved 40, j moved 10
	// → d=30. After: closes at 20. 250-30 = 220 → t = 2 + 11 = 13.
	if math.Abs(got-13) > 1e-9 {
		t.Fatalf("lifetime = %v, want 13", got)
	}
}

func TestAnalyticMatchesNumericProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	speedFn := func(k Kinematics1D) func(float64) float64 {
		lo, hi := speedBounds(k, testVMax)
		return func(t float64) float64 { return clamp(k.V+k.A*t, lo, hi) }
	}
	for trial := 0; trial < 300; trial++ {
		i := Kinematics1D{
			X: rng.Float64()*400 - 200,
			V: rng.Float64()*2*testVMax - testVMax, // either direction
			A: rng.Float64()*4 - 2,
		}
		j := Kinematics1D{
			X: 0,
			V: rng.Float64()*2*testVMax - testVMax,
			A: rng.Float64()*4 - 2,
		}
		if math.Abs(i.X) > testRange {
			continue
		}
		analytic := Lifetime(i, j, testRange, testVMax)
		numeric := LifetimeNumeric(
			speedFn(i), speedFn(j),
			i.X-j.X, testRange, 2000, 0.0005,
		)
		if analytic == Forever && numeric == Forever {
			continue
		}
		if analytic == Forever || numeric == Forever {
			// borderline: accept when the finite one is huge
			finite := math.Min(analytic, numeric)
			if finite > 1500 {
				continue
			}
			t.Fatalf("trial %d: analytic=%v numeric=%v (i=%+v j=%+v)", trial, analytic, numeric, i, j)
		}
		tol := 0.01 * math.Max(numeric, 1)
		if math.Abs(analytic-numeric) > tol {
			t.Fatalf("trial %d: analytic=%v numeric=%v (i=%+v j=%+v)", trial, analytic, numeric, i, j)
		}
	}
}

// breakGap is d_t (Eqn 2) at the moment Lifetime says the i–j link breaks;
// by Eqn (4) it is r·I(i,j), with I the ahead indicator of Eqn (3).
func breakGap(i, j Kinematics1D) float64 {
	t := Lifetime(i, j, testRange, testVMax)
	return displacement(i, t, testVMax) - displacement(j, t, testVMax) + (i.X - j.X)
}

func TestIndicatorAntisymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		i := Kinematics1D{X: rng.Float64()*300 - 150, V: rng.Float64() * 40, A: rng.Float64()*2 - 1}
		j := Kinematics1D{X: 0, V: rng.Float64() * 40, A: rng.Float64()*2 - 1}
		if i.X == 0 {
			continue
		}
		if Lifetime(i, j, testRange, testVMax) == Forever {
			continue
		}
		if tij, tji := Lifetime(i, j, testRange, testVMax), Lifetime(j, i, testRange, testVMax); math.Abs(tij-tji) > 1e-9*math.Max(tij, 1) {
			t.Fatalf("trial %d: lifetime not symmetric for i=%+v j=%+v", trial, i, j)
		}
		if gi, gj := breakGap(i, j), breakGap(j, i); math.Abs(math.Abs(gi)-testRange) > 1e-6 || math.Signbit(gi) == math.Signbit(gj) {
			t.Fatalf("trial %d: break gaps %v and %v, want ±r of opposite signs for i=%+v j=%+v", trial, gi, gj, i, j)
		}
	}
}

func TestIndicatorAheadSemantics(t *testing.T) {
	// i pulls ahead: at break i is in front, d_t = +r
	i := Kinematics1D{X: 0, V: 35}
	j := Kinematics1D{X: 0, V: 25}
	if got := breakGap(i, j); math.Abs(got-testRange) > 1e-9 {
		t.Fatalf("break gap = %v, want +%v", got, testRange)
	}
	// i falls behind: d_t = −r
	i, j = j, i
	if got := breakGap(i, j); math.Abs(got+testRange) > 1e-9 {
		t.Fatalf("break gap = %v, want -%v", got, testRange)
	}
}

func TestLifetimeVec(t *testing.T) {
	// 2-D: B ahead 150 m on x, A closing at 8 m/s. A catches up, passes,
	// and the link breaks when A is 250 m AHEAD: (250+150)/8 = 50.
	got := LifetimeVec(geom.V(0, 0), geom.V(33, 0), geom.V(150, 0), geom.V(25, 0), 250)
	if math.Abs(got-50) > 1e-9 {
		t.Fatalf("lifetime = %v, want 50", got)
	}
	// same velocity: forever
	if got := LifetimeVec(geom.V(0, 0), geom.V(30, 0), geom.V(100, 0), geom.V(30, 0), 250); got != Forever {
		t.Fatalf("lifetime = %v, want Forever", got)
	}
	// already out of range
	if got := LifetimeVec(geom.V(0, 0), geom.V(30, 0), geom.V(300, 0), geom.V(30, 0), 250); got != 0 {
		t.Fatalf("lifetime = %v, want 0", got)
	}
}

func TestLifetimeVecMatchesScalar(t *testing.T) {
	// property: 1-D constant-speed cases agree between the two solvers
	f := func(x, vi, vj uint8) bool {
		d0 := float64(x%200) - 100
		i1 := Kinematics1D{X: d0, V: float64(vi % 40)}
		j1 := Kinematics1D{X: 0, V: float64(vj % 40)}
		a := Lifetime(i1, j1, testRange, testVMax)
		b := LifetimeVec(geom.V(d0, 0), geom.V(float64(vi%40), 0), geom.V(0, 0), geom.V(float64(vj%40), 0), testRange)
		if a == Forever || b == Forever {
			return a == b
		}
		return math.Abs(a-b) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathLifetime(t *testing.T) {
	if got := PathLifetime(nil); got != Forever {
		t.Fatalf("empty path = %v", got)
	}
	if got := PathLifetime([]float64{10, 3, 25}); got != 3 {
		t.Fatalf("path lifetime = %v, want 3 (min rule)", got)
	}
}

func TestLifetimeNumericImmediateBreak(t *testing.T) {
	got := LifetimeNumeric(func(float64) float64 { return 0 }, func(float64) float64 { return 0 }, 300, 250, 100, 0.01)
	if got != 0 {
		t.Fatalf("numeric lifetime = %v, want 0", got)
	}
}

func TestQuadRoots(t *testing.T) {
	// x² - 3x + 2 = 0 → 1, 2
	roots := quadRoots(1, -3, 2)
	if len(roots) != 2 {
		t.Fatalf("roots = %v", roots)
	}
	lo, hi := math.Min(roots[0], roots[1]), math.Max(roots[0], roots[1])
	if math.Abs(lo-1) > 1e-12 || math.Abs(hi-2) > 1e-12 {
		t.Fatalf("roots = %v", roots)
	}
	// linear: 2x - 4 = 0
	roots = quadRoots(0, 2, -4)
	if len(roots) != 1 || roots[0] != 2 {
		t.Fatalf("linear roots = %v", roots)
	}
	// no real roots
	if roots = quadRoots(1, 0, 1); roots != nil {
		t.Fatalf("complex roots = %v", roots)
	}
	// constant
	if roots = quadRoots(0, 0, 3); roots != nil {
		t.Fatalf("constant roots = %v", roots)
	}
}
