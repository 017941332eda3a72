package prob

import (
	"math"
	"math/rand"
	"testing"
)

// quantileBisectOracle is the 80-step CDF bisection the link-duration
// integrals found their window with before Normal.tailWindow: the
// reference every window — and through it every golden — must match to
// the bit.
func quantileBisectOracle(d Normal, p, lo, hi float64) float64 {
	if p <= 0 {
		return lo
	}
	if p >= 1 {
		return hi
	}
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		if d.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// integrateOracle is LinkDurationModel.integrate as it was over the
// oracle's window.
func integrateOracle(d Normal, f func(dv float64) float64) float64 {
	lo := quantileBisectOracle(d, 1e-6, -1e4, 1e4)
	hi := quantileBisectOracle(d, 1-1e-6, -1e4, 1e4)
	if hi <= lo {
		return f(d.Mu)
	}
	const n = 400
	h := (hi - lo) / n
	sum := f(lo)*d.PDF(lo) + f(hi)*d.PDF(hi)
	for i := 1; i < n; i++ {
		x := lo + float64(i)*h
		w := 2.0
		if i%2 == 1 {
			w = 4
		}
		sum += w * f(x) * d.PDF(x)
	}
	val := sum * h / 3
	mass := d.CDF(hi) - d.CDF(lo)
	if mass <= 0 {
		return f(d.Mu)
	}
	return val / mass
}

func checkWindow(t *testing.T, n Normal) {
	t.Helper()
	lo, hi := n.tailWindow()
	wantLo := quantileBisectOracle(n, 1e-6, -1e4, 1e4)
	wantHi := quantileBisectOracle(n, 1-1e-6, -1e4, 1e4)
	if lo != wantLo || hi != wantHi {
		t.Fatalf("%+v: window [%v, %v] (%#x, %#x), oracle [%v, %v] (%#x, %#x)", n,
			lo, hi, math.Float64bits(lo), math.Float64bits(hi),
			wantLo, wantHi, math.Float64bits(wantLo), math.Float64bits(wantHi))
	}
}

func TestTailZIsTheTailQuantile(t *testing.T) {
	if got := (Normal{Sigma: 1}).CDF(-tailZ); math.Abs(got-1e-6) > 1e-20 {
		t.Fatalf("Φ(−tailZ) = %v, want 1e-6", got)
	}
	if got := math.Sqrt2 * math.Erfinv(2*1e-6-1); math.Abs(got+tailZ) > 1e-10 {
		t.Fatalf("closed-form quantile of 1e-6 = %v, want %v", got, -tailZ)
	}
}

func TestTailWindowMatchesBisectionExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sigmas := []float64{0.5, 2, 3.3, 5}
	cases := 120000
	if testing.Short() {
		cases = 12000
	}
	for i := 0; i < cases; i++ {
		checkWindow(t, Normal{Mu: 120*rng.Float64() - 60, Sigma: sigmas[i%len(sigmas)]})
	}
	// a quantile within 1e-12 of 0, where floats are so dense that 80
	// halvings of [−1e4, 1e4] end far from adjacent ones
	for _, sigma := range sigmas {
		for i := 0; i < 2000; i++ {
			off := 2e-12*rng.Float64() - 1e-12
			checkWindow(t, Normal{Mu: tailZ*sigma + off, Sigma: sigma})
			checkWindow(t, Normal{Mu: -tailZ*sigma + off, Sigma: sigma})
		}
	}
}

func TestTailWindowOutsideTheUsualModels(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// spreads from far below a float's spacing at the mean to beyond the
	// bracket, means on and past its ends
	for i := 0; i < 20000; i++ {
		sigma := math.Pow(10, 24*rng.Float64()-18)
		mu := 3e4*rng.Float64() - 1.5e4
		if i%3 == 0 {
			mu = 200*rng.Float64() - 100
		}
		checkWindow(t, Normal{Mu: mu, Sigma: sigma})
	}
	for _, n := range []Normal{
		{Mu: 0, Sigma: 1}, {Mu: 1e4, Sigma: 1}, {Mu: -1e4, Sigma: 1}, {Mu: 1e4, Sigma: 1e-9},
		{Mu: math.NaN(), Sigma: 1}, {Mu: math.Inf(1), Sigma: 1}, {Mu: 3, Sigma: math.Inf(1)},
		{Mu: 3, Sigma: 5e-324}, {Mu: 0, Sigma: 1e-300},
	} {
		checkWindow(t, n)
	}
}

// checkIntegrals requires Expected and SurvivalProb(at) of m to be the old
// integrals to the bit; a NaN (a NaN gap, or 0·∞ where a subnormal σ
// overflows the density) must stay one.
func checkIntegrals(t *testing.T, m LinkDurationModel, at float64) {
	t.Helper()
	same := func(a, b float64) bool { return a == b || a != a && b != b }
	want := integrateOracle(m.RelSpeed, m.Duration)
	if got := m.Expected(); !same(got, want) {
		t.Fatalf("%+v: Expected = %v (%#x), old integral %v (%#x)", m, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if at <= 0 {
		return // answered without an integral
	}
	want = integrateOracle(m.RelSpeed, func(dv float64) float64 {
		if m.Duration(dv) > at {
			return 1
		}
		return 0
	})
	if got := m.SurvivalProb(at); !same(got, want) {
		t.Fatalf("%+v: SurvivalProb(%v) = %v (%#x), old integral %v (%#x)", m, at, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestIntegralsMatchTheOldWindowExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sigmas := []float64{0.5, 2, 3.3, 5, 0, -1, math.NaN()}
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
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
		checkIntegrals(t, m, 60*rng.Float64())
	}

	// The corners: spreads wider than the bracket, and so narrow that the
	// window is a few adjacent floats (a subnormal one overflows the density
	// at the mean, so the old sums hold ∞ and 0·∞); means that are no
	// number; a gap on the edge of the range, where T is 0 on one side of
	// Δv = 0, and a NaN one; survival asked at the smallest times and at or
	// past the horizon.
	sigmas = []float64{1e-300, 5e-324, 1e3, math.Inf(1), 2, 5}
	cases /= 4
	for i := 0; i < cases; i++ {
		m := LinkDurationModel{
			RelSpeed: Normal{Mu: 120*rng.Float64() - 60, Sigma: sigmas[i%len(sigmas)]},
			Range:    []float64{100, 250, 500}[rng.Intn(3)],
			Horizon:  []float64{0, 300, 600}[rng.Intn(3)],
		}
		switch rng.Intn(16) {
		case 0, 1:
			m.RelSpeed.Mu = 0 // the one mean a narrow window can straddle
		case 2:
			m.RelSpeed.Mu = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)] // no window at all
		}
		switch rng.Intn(5) {
		case 0:
			m.Gap = m.Range
		case 1:
			m.Gap = -m.Range
		case 2:
			m.Gap = math.NaN()
		case 3:
			m.Gap = 1.5 * m.Range
		default:
			m.Gap = (2*rng.Float64() - 1) * m.Range
		}
		h := m.horizon()
		ats := []float64{5e-324, 1e-300, 1e-9, 60 * rng.Float64(), math.Nextafter(h, 0), h, 2 * h, math.Inf(1), math.NaN()}
		checkIntegrals(t, m, ats[rng.Intn(len(ats))])
	}
}

var benchWindow float64

// BenchmarkTailWindow is the integration window of one stability integral.
func BenchmarkTailWindow(b *testing.B) {
	n := Normal{Mu: -5, Sigma: 5}
	for i := 0; i < b.N; i++ {
		lo, hi := n.tailWindow()
		benchWindow += hi - lo
	}
}
