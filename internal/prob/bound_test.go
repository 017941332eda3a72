package prob

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// boundGivesUp restates where ExpectedBound's argument does not hold, so
// the bound must be +Inf, and where the link is already down, so it and
// Expected must be 0.
func boundGivesUp(m LinkDurationModel) (inf, zero bool) {
	mu, sigma := m.RelSpeed.Mu, m.RelSpeed.Sigma
	switch {
	case math.IsNaN(sigma) || sigma <= 0 || 1/(sigma*math.Sqrt(2*math.Pi)) > math.MaxFloat64:
		return true, false
	case m.down():
		return false, true
	}
	h := m.horizon()
	return math.IsInf(sigma, 1) || math.IsNaN(mu) || math.IsInf(mu, 0) || math.Abs(mu) > 1e6*sigma ||
		math.IsNaN(m.Range-m.Gap) || math.IsNaN(m.Range+m.Gap) || math.IsNaN(h), false
}

// checkBound requires ExpectedBound to be +Inf or 0 exactly where
// boundGivesUp says, and everywhere else a number no smaller than Expected
// by exact comparison; and Expected to lie in [0, H] wherever the mean, the
// distances of Eqn (4) and the horizon are numbers. It returns the two.
func checkBound(t testing.TB, m LinkDurationModel) (bound, expected float64) {
	t.Helper()
	bound, expected = m.ExpectedBound(), m.Expected()
	inf, zero := boundGivesUp(m)
	switch {
	case inf:
		if !math.IsInf(bound, 1) {
			t.Fatalf("%+v: bound %v, want +Inf (Expected %v)", m, bound, expected)
		}
	case zero:
		if bound != 0 || expected != 0 {
			t.Fatalf("%+v: a down link's bound %v and Expected %v, want 0", m, bound, expected)
		}
	case !(bound >= expected) || math.IsInf(bound, 1) && !math.IsInf(m.horizon(), 1):
		t.Fatalf("%+v: bound %v (%#x) against Expected %v (%#x)", m, bound, math.Float64bits(bound),
			expected, math.Float64bits(expected))
	}
	h := m.horizon()
	numbers := !math.IsNaN(m.RelSpeed.Mu) && !math.IsNaN(m.Range-m.Gap) && !math.IsNaN(m.Range+m.Gap) && !math.IsNaN(h)
	if numbers && !(expected >= 0 && expected <= h) {
		t.Fatalf("%+v: Expected %v outside [0, %v]", m, expected, h)
	}
	return bound, expected
}

// randomModel draws mostly the models the ticket router builds — relative
// speeds of ±60 m/s, σ of 2 or 5, gaps inside the range — and, one draw in
// two, something further off: spreads from 1e-4 to 1e4, means on and
// inside the window around 0, gaps on the range's edges and past them.
func randomModel(rng *rand.Rand) LinkDurationModel {
	r := []float64{100, 250, 500}[rng.Intn(3)]
	m := LinkDurationModel{
		RelSpeed: Normal{Mu: 120*rng.Float64() - 60, Sigma: []float64{0.5, 2, 3.3, 5}[rng.Intn(4)]},
		Gap:      (2*rng.Float64() - 1) * r,
		Range:    r,
		Horizon:  []float64{0, 1, 30, 300, 600}[rng.Intn(5)],
	}
	switch rng.Intn(10) {
	case 0:
		m.RelSpeed.Sigma = math.Pow(10, 8*rng.Float64()-4)
	case 1:
		m.RelSpeed.Mu = 0
	case 2:
		m.RelSpeed.Mu = (2*rng.Float64() - 1) * 5 * m.RelSpeed.Sigma
	case 3:
		m.Gap = []float64{-r, r}[rng.Intn(2)]
	case 4:
		m.Gap = (1 + rng.Float64()) * r * []float64{-1, 1}[rng.Intn(2)]
	}
	return m
}

// TestExpectedBoundNeverBelowExpected draws 10⁶ models (10⁵ with -short)
// in four parallel streams.
func TestExpectedBoundNeverBelowExpected(t *testing.T) {
	cases := 1000000
	if testing.Short() {
		cases = 100000
	}
	for stream := int64(0); stream < 4; stream++ {
		t.Run(fmt.Sprint(stream), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(29 + stream))
			var ratio float64
			var bounded int
			for i := 0; i < cases/4; i++ {
				b, e := checkBound(t, randomModel(rng))
				if e > 0 && !math.IsInf(b, 1) {
					ratio, bounded = ratio+b/e, bounded+1
				}
			}
			t.Logf("%d models, %d bounded: bound/Expected %.3f on average", cases/4, bounded, ratio/float64(bounded))
		})
	}
}

// TestExpectedBoundCorners runs every combination of the corner spreads,
// means, gaps and horizons.
func TestExpectedBoundCorners(t *testing.T) {
	const r = 250
	for _, sigma := range []float64{5e-324, 1e-300, 1e-11, 2, 4, 5, 1e3} {
		for _, mu := range []float64{0, math.Copysign(0, -1), 4.8 * sigma, -4.8 * sigma, 80, -80, 9996, 1e7, -1e7, math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, gap := range []float64{0, r, -r, 1.5 * r, -1.5 * r} {
				for _, horizon := range []float64{1, 300, 3600} {
					checkBound(t, LinkDurationModel{RelSpeed: Normal{Mu: mu, Sigma: sigma}, Gap: gap, Range: r, Horizon: horizon})
				}
			}
		}
	}
	// the answers the argument does not cover, each pinned
	for _, tc := range []struct {
		m    LinkDurationModel
		want float64
	}{
		{LinkDurationModel{RelSpeed: Normal{Mu: 1, Sigma: 0}, Range: r}, math.Inf(1)},
		{LinkDurationModel{RelSpeed: Normal{Mu: 1, Sigma: math.NaN()}, Range: r}, math.Inf(1)},
		{LinkDurationModel{RelSpeed: Normal{Mu: 1, Sigma: math.Inf(1)}, Range: r}, math.Inf(1)},
		{LinkDurationModel{RelSpeed: Normal{Mu: 1, Sigma: math.Inf(1)}, Gap: 2 * r, Range: r}, 0},
		{LinkDurationModel{RelSpeed: Normal{Mu: 1, Sigma: 5e-324}, Gap: 2 * r, Range: r}, math.Inf(1)},
		{LinkDurationModel{RelSpeed: Normal{Mu: 1, Sigma: 2}, Gap: 2 * r, Range: r}, 0},
		{LinkDurationModel{RelSpeed: Normal{Mu: 1e7, Sigma: 2}, Range: r}, math.Inf(1)},
		{LinkDurationModel{RelSpeed: Normal{Mu: 1, Sigma: 2}, Gap: math.NaN(), Range: r}, math.Inf(1)},
		{LinkDurationModel{RelSpeed: Normal{Mu: 1, Sigma: 2}, Range: math.NaN()}, math.Inf(1)},
		{LinkDurationModel{RelSpeed: Normal{Mu: 1, Sigma: 2}, Range: r, Horizon: math.NaN()}, math.Inf(1)},
	} {
		if got := tc.m.ExpectedBound(); got != tc.want {
			t.Errorf("%+v: bound %v, want %v", tc.m, got, tc.want)
		}
	}
}

// TestExpectedBoundAboveAnExactZero is the model a bound over the old
// Simpson window read 0 on: the gap on the range, so T = 0 for every
// Δv > 0, and μ = 4.8σ, so the window saw no Δv < 0. The exact Expected is
// not 0, and neither may the bound be.
func TestExpectedBoundAboveAnExactZero(t *testing.T) {
	for _, m := range []LinkDurationModel{
		{RelSpeed: Normal{Mu: 9.6, Sigma: 2}, Gap: 250, Range: 250, Horizon: 300},
		{RelSpeed: Normal{Mu: -9.6, Sigma: 2}, Gap: -250, Range: 250, Horizon: 300},
	} {
		if b, e := checkBound(t, m); !(e > 0) {
			t.Fatalf("%+v: Expected %v, bound %v", m, e, b)
		}
	}
}

// TestBoundBlocksTileTheLine: the blocks follow one another from −Inf to
// +Inf, through ±tailZ, and their masses are probabilities summing to 1.
func TestBoundBlocksTileTheLine(t *testing.T) {
	total := 0.0
	for i, b := range boundBlocks {
		if !(b.zLo < b.zHi) || i > 0 && boundBlocks[i-1].zHi != b.zLo || !(b.mass > 0) {
			t.Fatalf("block %d: %+v after %+v", i, b, boundBlocks[max(i-1, 0)])
		}
		total += b.mass
	}
	last := len(boundBlocks) - 1
	if boundBlocks[0].zLo != math.Inf(-1) || boundBlocks[last].zHi != math.Inf(1) ||
		boundBlocks[0].zHi != -tailZ || boundBlocks[last].zLo != tailZ {
		t.Fatalf("blocks start %+v and end %+v", boundBlocks[0], boundBlocks[last])
	}
	if math.Abs(total-1) > 1e-15 {
		t.Fatalf("block masses sum to %v", total)
	}
}

func FuzzExpectedBound(f *testing.F) {
	f.Add(3.0, 5.0, 120.0, 250.0, 300.0)
	f.Add(0.0, 2.0, 0.0, 250.0, 3600.0)
	f.Add(-80.0, 2.0, 250.0, 250.0, 1.0)
	f.Add(1e7, 1e3, -100.0, 500.0, 0.0)
	f.Add(0.0, 1e-300, 10.0, 100.0, 600.0)
	f.Add(0.0, 1e-10, 10.0, 100.0, 600.0)
	f.Add(9.6, 2.0, 250.0, 250.0, 300.0)
	f.Fuzz(func(t *testing.T, mu, sigma, gap, rangeM, horizon float64) {
		checkBound(t, LinkDurationModel{RelSpeed: Normal{Mu: mu, Sigma: sigma}, Gap: gap, Range: rangeM, Horizon: horizon})
	})
}

var benchBound float64

// BenchmarkExpectedBound against BenchmarkExpected: one bound and one
// integral of the same TBP-SS model.
func BenchmarkExpectedBound(b *testing.B) {
	m := LinkDurationModel{RelSpeed: Normal{Mu: -3, Sigma: 5}, Gap: 120, Range: 250, Horizon: 300}
	b.Run("bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchBound += m.ExpectedBound()
		}
	})
	b.Run("expected", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchBound += m.Expected()
		}
	})
}
