package prob

import (
	"math"
	"math/rand"
	"testing"
)

// normalPDF is the N(Mu, Sigma²) density at x, 0 without spread.
func normalPDF(n Normal, x float64) float64 {
	if n.Sigma <= 0 {
		return 0
	}
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-0.5*z*z) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// normalCDF is P(X ≤ x) under N(Mu, Sigma²), a step at Mu without spread.
func normalCDF(n Normal, x float64) float64 {
	if n.Sigma <= 0 {
		if x < n.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// simpson is the composite Simpson rule for f over [lo, hi] in n panels,
// n even.
func simpson(f func(float64) float64, lo, hi float64, n int) float64 {
	h := (hi - lo) / float64(n)
	sum := f(lo) + f(hi)
	for i := 1; i < n; i++ {
		w := 2.0
		if i%2 == 1 {
			w = 4
		}
		sum += w * f(lo+float64(i)*h)
	}
	return sum * h / 3
}

// quantileBisectOracle finds the p-quantile of d by 80 bisection steps of
// its CDF on [lo, hi]: the window the link-duration integrals once summed
// over.
func quantileBisectOracle(d Normal, p, lo, hi float64) float64 {
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		if normalCDF(d, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// integrateOracle is how SurvivalProb and Expected once integrated f over
// the relative-speed density: a 400-panel Simpson sum between its 1e-6 tail
// quantiles, divided by the mass it captured. The tests log how far it was
// from the closed forms' references.
func integrateOracle(d Normal, f func(dv float64) float64) float64 {
	lo := quantileBisectOracle(d, 1e-6, -1e4, 1e4)
	hi := quantileBisectOracle(d, 1-1e-6, -1e4, 1e4)
	if hi <= lo {
		return f(d.Mu)
	}
	val := simpson(func(x float64) float64 { return f(x) * normalPDF(d, x) }, lo, hi, 400)
	mass := normalCDF(d, hi) - normalCDF(d, lo)
	if mass <= 0 {
		return f(d.Mu)
	}
	return val / mass
}

func TestTailZIsTheTailQuantile(t *testing.T) {
	if got := normalCDF(Normal{Sigma: 1}, -tailZ); math.Abs(got-1e-6) > 1e-20 {
		t.Fatalf("Φ(−tailZ) = %v, want 1e-6", got)
	}
	if got := math.Sqrt2 * math.Erfinv(2*1e-6-1); math.Abs(got+tailZ) > 1e-10 {
		t.Fatalf("closed-form quantile of 1e-6 = %v, want %v", got, -tailZ)
	}
}

// survivalEdge returns where Duration(x) > at stops holding on the side of
// Δv = 0 that sign points to, given that it holds at 0: the bracket doubles
// until the lifetime falls to at, then bisects until its ends are adjacent.
func survivalEdge(m LinkDurationModel, at, sign float64) float64 {
	in, out := 0.0, sign
	for m.Duration(out) > at {
		in, out = out, 2*out
	}
	for {
		mid := 0.5 * (in + out)
		if mid == in || mid == out {
			return mid
		}
		if m.Duration(mid) > at {
			in = mid
		} else {
			out = mid
		}
	}
}

// referenceSurvival is P(Duration(Δv) > at) found numerically: the lifetime
// is largest at Δv = 0 and falls on either side, so the link survives on one
// interval, whose ends bisection finds from Duration alone; a 20,000-panel
// Simpson sum of the density over it, clipped to μ ± 12σ, is the
// probability. Without spread, Δv is μ.
func referenceSurvival(m LinkDurationModel, at float64) float64 {
	d := m.RelSpeed
	if !(d.Sigma > 0) {
		if m.Duration(d.Mu) > at {
			return 1
		}
		return 0
	}
	if !(m.Duration(0) > at) {
		return 0
	}
	lo := max(survivalEdge(m, at, -1), d.Mu-12*d.Sigma)
	hi := min(survivalEdge(m, at, 1), d.Mu+12*d.Sigma)
	if !(lo < hi) {
		return 0
	}
	return simpson(func(x float64) float64 { return normalPDF(d, x) }, lo, hi, 20000)
}

// TestSurvivalMatchesReference holds the closed-form SurvivalProb within
// 1e-9 of referenceSurvival on random models — a third of them with the gap
// beyond the range, and some without spread, which must match exactly —
// and to the bit of the same link seen along the opposite axis, and logs
// how far the old Simpson sum was; then it checks the corners.
func TestSurvivalMatchesReference(t *testing.T) {
	t.Run("random", testSurvivalRandom)
	t.Run("corners", testSurvivalCorners)
}

func testSurvivalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sigmas := []float64{0.5, 2, 3.3, 5, 0, -1, math.NaN()}
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	worst, worstOld := 0.0, 0.0
	for i := 0; i < cases; i++ {
		m := LinkDurationModel{
			RelSpeed: Normal{Mu: 120*rng.Float64() - 60, Sigma: sigmas[rng.Intn(len(sigmas))]},
			Gap:      400*rng.Float64() - 50, // beyond the range in three cases of ten
			Range:    []float64{100, 250, 500}[rng.Intn(3)],
			Horizon:  []float64{0, 300, 600}[rng.Intn(3)],
		}
		if rng.Intn(4) == 0 {
			m.Gap = -m.Gap
		}
		at := 60 * rng.Float64()
		got, want := m.SurvivalProb(at), referenceSurvival(m, at)
		// the same link seen along the opposite axis: gap and Δv negated
		mirror := m
		mirror.Gap, mirror.RelSpeed.Mu = -m.Gap, -m.RelSpeed.Mu
		if g := mirror.SurvivalProb(at); g != got {
			t.Fatalf("%+v: SurvivalProb(%v) = %v, mirrored %v", m, at, got, g)
		}
		if !(m.RelSpeed.Sigma > 0) {
			if got != want {
				t.Fatalf("%+v: SurvivalProb(%v) = %v, point mass %v", m, at, got, want)
			}
			continue
		}
		if err := math.Abs(got - want); !(err <= 1e-9) {
			t.Fatalf("%+v: SurvivalProb(%v) = %v, reference %v", m, at, got, want)
		} else {
			worst = max(worst, err)
		}
		old := integrateOracle(m.RelSpeed, func(dv float64) float64 {
			if m.Duration(dv) > at {
				return 1
			}
			return 0
		})
		worstOld = max(worstOld, math.Abs(old-want))
	}
	t.Logf("%d models: worst absolute error %.3g; the old Simpson sum's %.3g", cases, worst, worstOld)
}

// testSurvivalCorners: the answers that need no probability, and the
// spreads too narrow for a density.
func testSurvivalCorners(t *testing.T) {
	up := func(mu, sigma float64) LinkDurationModel {
		return LinkDurationModel{RelSpeed: Normal{Mu: mu, Sigma: sigma}, Gap: 50, Range: 250, Horizon: 300}
	}
	nan := math.NaN()
	for _, c := range []struct {
		name string
		m    LinkDurationModel
		at   float64
		want float64
	}{
		{"NaN mean", up(nan, 2), 10, nan},
		{"NaN gap", LinkDurationModel{RelSpeed: Normal{Mu: 1, Sigma: 2}, Gap: nan, Range: 250}, 10, nan},
		{"NaN time", up(1, 2), nan, nan},
		{"down ahead", LinkDurationModel{RelSpeed: Normal{Mu: 1, Sigma: 2}, Gap: 300, Range: 250}, 10, 0},
		{"down behind", LinkDurationModel{RelSpeed: Normal{Mu: -1, Sigma: 2}, Gap: -300, Range: 250}, 10, 0},
		{"down at t = 0", LinkDurationModel{RelSpeed: Normal{Mu: 0, Sigma: 2}, Gap: 300, Range: 250}, 0, 0},
		{"up at t = 0", up(40, 2), 0, 1},
		{"up at t < 0", up(40, 2), -1, 1},
		{"at the horizon", up(0, 1e-3), 300, 0},
		{"past the horizon", up(0, 1e-3), 600, 0},
		{"at an infinite time", up(0, 1e-3), math.Inf(1), 0},
		// T(5) = (250 − 50)/5 = 40
		{"point mass, survives", up(5, 0), 39, 1},
		{"point mass, broken", up(5, 0), 41, 0},
		{"negative σ", up(5, -1), 39, 1},
		{"NaN σ", up(5, nan), 41, 0},
		{"subnormal σ, survives", up(5, 5e-324), 39, 1},
		{"subnormal σ, broken", up(5, 5e-324), 41, 0},
		{"tiny σ, survives", up(5, 1e-300), 39, 1},
		{"tiny σ, broken", up(5, 1e-300), 41, 0},
	} {
		got := c.m.SurvivalProb(c.at)
		if got != c.want && !(got != got && c.want != c.want) {
			t.Errorf("%s: %+v SurvivalProb(%v) = %v, want %v", c.name, c.m, c.at, got, c.want)
		}
	}
	// just below the horizon the link with Δv ≈ 0 is still up
	if got := up(0, 1e-3).SurvivalProb(math.Nextafter(300, 0)); got != 1 {
		t.Errorf("SurvivalProb just below the horizon = %v, want 1", got)
	}
}
