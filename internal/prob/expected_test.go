package prob

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// gaussLegendre returns the non-negative nodes of the n-point
// Gauss–Legendre rule on [−1, 1], in descending order, and their weights
// 2/((1 − x²)·P_n'(x)²), rounded from a 256-bit Newton iteration on the
// Legendre polynomial P_n that starts at the usual cosine guesses. (In
// float64 the recurrence loses a few units in the last place of a weight.)
func gaussLegendre(n int) (nodes, weights []float64) {
	const prec = 256
	num := func(v float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(v) }
	// legendre returns P_n(x) and P_n'(x) = n·(x·P_n − P_{n−1})/(x² − 1).
	legendre := func(x *big.Float) (p, dp *big.Float) {
		p0, p1 := num(1), num(0).Set(x)
		for k := 2; k <= n; k++ {
			t := num(2*float64(k) - 1)
			t.Mul(t, x).Mul(t, p1).Sub(t, num(float64(k)-1).Mul(num(float64(k)-1), p0))
			p0, p1 = p1, t.Quo(t, num(float64(k)))
		}
		dp = num(0).Mul(x, p1)
		dp.Sub(dp, p0).Mul(dp, num(float64(n)))
		return p1, dp.Quo(dp, num(0).Sub(num(0).Mul(x, x), num(1)))
	}
	for i := 0; i < (n+1)/2; i++ {
		x := num(0) // the middle node of an odd rule
		if 2*i+1 != n {
			x = num(math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5)))
			for it := 0; it < 20; it++ {
				p, dp := legendre(x)
				x.Sub(x, p.Quo(p, dp))
			}
		}
		_, dp := legendre(x)
		w := num(1).Sub(num(1), num(0).Mul(x, x))
		w.Mul(w, dp).Mul(w, dp)
		xf, _ := x.Float64()
		wf, _ := w.Quo(num(2), w).Float64()
		nodes, weights = append(nodes, xf), append(weights, wf)
	}
	return nodes, weights
}

// referenceExpected is E[min(T, H)] by a composite 10-point Gauss–Legendre
// rule over each of the three pieces Expected sums, split at the kinks:
// between them in Δv, and the two tails in s = ln v (a v-space rule near a
// tiny kink a/H mistakes the 1/v for error), each over ±12σ around where
// the density lives and in 4,000 panels.
func referenceExpected(m LinkDurationModel) float64 {
	const panels = 4000
	x, w := gaussLegendre(10)
	// composite integrates f over [a, b]
	composite := func(a, b float64, f func(float64) float64) float64 {
		if !(a < b) {
			return 0
		}
		h, sum := (b-a)/panels, 0.0
		for p := 0; p < panels; p++ {
			mid := a + (float64(p)+0.5)*h
			for i := range x {
				sum += w[i] * (f(mid+0.5*h*x[i]) + f(mid-0.5*h*x[i]))
			}
		}
		return 0.5 * h * sum
	}
	mu, sigma := m.RelSpeed.Mu, m.RelSpeed.Sigma
	pdf := func(v, mu float64) float64 {
		z := (v - mu) / sigma
		return math.Exp(-0.5*z*z) / (sigma * math.Sqrt(2*math.Pi))
	}
	ahead, behind, h := m.Range-m.Gap, m.Range+m.Gap, m.horizon()
	e := h * composite(-behind/h, ahead/h, func(v float64) float64 { return pdf(v, mu) })
	// tail is dist·∫_{dist/h}^∞ pdf(v; mean)/v dv
	tail := func(dist, mean float64) float64 {
		if dist == 0 {
			return 0
		}
		c := dist / h
		lo, hi := max(c, mean-12*sigma), max(c, mean)+12*sigma
		return dist * composite(math.Log(lo), math.Log(hi), func(s float64) float64 {
			return pdf(math.Exp(s), mean)
		})
	}
	return e + tail(ahead, mu) + tail(behind, -mu)
}

// randomModels is how many of referenceModels are drawn at random.
const randomModels = 200

// referenceModels are the ticket router's models and their edges: μ drawn
// from N(0, 15²), one in ten from ±60; σ of 2, 4, 5 or 6; horizons of 300,
// 600 and 3600 s; and a grid of corners where the gap sits on the range or
// 1e-9 of it inside, with μ at ±0, ±4.8σ (where a Simpson window sees only
// one side of Δv = 0) and ±60.
func referenceModels() []LinkDurationModel {
	rng := rand.New(rand.NewSource(40))
	sigmas := []float64{2, 4, 5, 6}
	horizons := []float64{300, 600, 3600}
	ranges := []float64{100, 250, 500}
	var ms []LinkDurationModel
	for i := 0; i < randomModels; i++ {
		r := ranges[rng.Intn(len(ranges))]
		mu := 15 * rng.NormFloat64()
		if i%10 == 0 {
			mu = 120*rng.Float64() - 60
		}
		ms = append(ms, LinkDurationModel{
			RelSpeed: Normal{Mu: mu, Sigma: sigmas[rng.Intn(len(sigmas))]},
			Gap:      (2*rng.Float64() - 1) * r,
			Range:    r,
			Horizon:  horizons[rng.Intn(len(horizons))],
		})
	}
	for _, sigma := range []float64{2, 6} {
		for _, mu := range []float64{0, math.Copysign(0, -1), 4.8 * sigma, -4.8 * sigma, 60, -60} {
			for _, gap := range []float64{250, -250, 250 * (1 - 1e-9), -250 * (1 - 1e-9)} {
				for _, h := range horizons {
					ms = append(ms, LinkDurationModel{RelSpeed: Normal{Mu: mu, Sigma: sigma}, Gap: gap, Range: 250, Horizon: h})
				}
			}
		}
	}
	return ms
}

// worstRelativeError is the largest |got − want|/want over the models, and
// the model it is at.
func worstRelativeError(ms, want []float64) (worst float64, at int) {
	for i := range ms {
		if err := math.Abs(ms[i]-want[i]) / want[i]; ms[i] != want[i] && !(err <= worst) {
			worst, at = err, i
		}
	}
	return worst, at
}

// expectedWith evaluates every model under the n-point rule.
func expectedWith(models []LinkDurationModel, n int) []float64 {
	x, w := gaussLegendre(n)
	got := make([]float64, len(models))
	for i, m := range models {
		got[i] = m.expected(x, w)
	}
	return got
}

// TestExpectedMatchesReference holds Expected to 1e-10 relative of the
// fine reference on every model, and shows that one node fewer per panel
// does not: glNodes is the smallest rule that holds it. It logs how far
// the 401-node Simpson sum Expected used to be.
func TestExpectedMatchesReference(t *testing.T) {
	models := referenceModels()
	want := make([]float64, len(models))
	got := make([]float64, len(models))
	simpson := make([]float64, len(models))
	for i, m := range models {
		want[i] = referenceExpected(m)
		got[i] = m.Expected()
		simpson[i] = integrateOracle(m.RelSpeed, m.Duration)
		if !(want[i] > 0) {
			t.Fatalf("%+v: reference %v", m, want[i])
		}
	}
	if worst, at := worstRelativeError(got, want); worst > 1e-10 {
		t.Fatalf("%+v: Expected %v against reference %v, relative error %.3g", models[at], got[at], want[at], worst)
	} else {
		t.Logf("%d models: worst relative error %.3g at %+v", len(models), worst, models[at])
	}
	fewer := glPoints - 1
	if worst, at := worstRelativeError(expectedWith(models, fewer), want); !(worst > 1e-10) {
		t.Fatalf("a %d-node rule holds 1e-10 too (worst %.3g at %+v): glNodes is not the smallest", fewer, worst, models[at])
	} else {
		t.Logf("a %d-node rule: worst relative error %.3g", fewer, worst)
	}
	worst, at := worstRelativeError(simpson[:randomModels], want[:randomModels])
	t.Logf("the old Simpson sum: worst relative error %.3g on the random models, at %+v", worst, models[at])
	worst, at = worstRelativeError(simpson, want)
	t.Logf("the old Simpson sum: worst relative error %.3g on all, at %+v", worst, models[at])
}

// TestGaussLegendreTable recomputes the committed rule: each node and
// weight within one unit in the last place of gaussLegendre's, and
// the weights of the whole rule summing to 2, the length of [−1, 1].
func TestGaussLegendreTable(t *testing.T) {
	x, w := gaussLegendre(glPoints)
	if len(x) != len(glNodes) {
		t.Fatalf("%d non-negative nodes, table has %d", len(x), len(glNodes))
	}
	ulps := func(a, b float64) uint64 {
		ia, ib := math.Float64bits(a), math.Float64bits(b)
		return max(ia, ib) - min(ia, ib)
	}
	total := 0.0
	for i := range x {
		if ulps(x[i], glNodes[i]) > 1 || ulps(w[i], glWeights[i]) > 1 {
			t.Errorf("node %d: table (%v, %v), Newton (%v, %v)", i, glNodes[i], glWeights[i], x[i], w[i])
		}
		if glNodes[i] == 0 {
			total += glWeights[i]
		} else {
			total += 2 * glWeights[i]
		}
	}
	if math.Abs(total-2) > 1e-15 {
		t.Fatalf("weights sum to %v", total)
	}
}
