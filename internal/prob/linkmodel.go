package prob

import (
	"math"
	"math/rand"
)

// LinkDurationModel derives the distribution of a link's remaining lifetime
// from a probabilistic relative-speed model, the construction the survey
// describes for probability-model-based routing (Sec. VII-A): "speed and
// acceleration both are often assumed as normally distributed ... under
// these assumptions, the distribution of link lifetime can be developed."
//
// The kinematic core is the constant-speed solution of Eqn (4): with a
// signed gap d₀ (positive when the sender is ahead) and relative speed
// Δv = v_i − v_j, the link breaks after
//
//	T(Δv) = (r − d₀)/Δv   if Δv > 0   (sender pulls ahead)
//	T(Δv) = (r + d₀)/(−Δv) if Δv < 0  (sender falls behind)
//	T(0)  = ∞
//
// Uncertainty about Δv (estimation error, future speed changes) is
// expressed by the RelSpeed distribution; all summary statistics integrate
// T over it numerically.
type LinkDurationModel struct {
	// RelSpeed is the distribution of the relative speed Δv in m/s.
	RelSpeed Normal
	// Gap is the current signed axis distance d₀ in meters.
	Gap float64
	// Range is the communication range r in meters.
	Range float64
	// Horizon truncates the lifetime for statistics, keeping expectations
	// finite even though T(Δv→0) → ∞. Zero means 3600 s.
	Horizon float64
}

func (m LinkDurationModel) horizon() float64 {
	if m.Horizon <= 0 {
		return 3600
	}
	return m.Horizon
}

// Duration returns T(dv), the deterministic lifetime at relative speed dv,
// truncated to the horizon. A gap already outside the range yields 0.
func (m LinkDurationModel) Duration(dv float64) float64 {
	h := m.horizon()
	if math.Abs(m.Gap) > m.Range {
		return 0
	}
	var t float64
	switch {
	case dv > 0:
		t = (m.Range - m.Gap) / dv
	case dv < 0:
		t = (m.Range + m.Gap) / -dv
	default:
		return h
	}
	if t > h {
		return h
	}
	return t
}

// Expected returns E[min(T, horizon)], the "expected link duration" routing
// metric of the Yan ticket-probing protocol, integrating the deterministic
// lifetime over the relative-speed distribution with Simpson's rule.
func (m LinkDurationModel) Expected() float64 {
	return m.integrate(func(dv float64) float64 { return m.Duration(dv) })
}

// SurvivalProb returns P(T > t): the probability the link is still up after
// t seconds, the quantity GVGrid and NiuDe-style protocols threshold on.
func (m LinkDurationModel) SurvivalProb(t float64) float64 {
	if t <= 0 {
		if math.Abs(m.Gap) > m.Range {
			return 0
		}
		return 1
	}
	return m.integrate(func(dv float64) float64 {
		if m.Duration(dv) > t {
			return 1
		}
		return 0
	})
}

// Quantile returns the t with P(T ≤ t) = p, by bisection on SurvivalProb.
func (m LinkDurationModel) Quantile(p float64) float64 {
	lo, hi := 0.0, m.horizon()
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if 1-m.SurvivalProb(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// SampleDuration draws a lifetime variate: first a relative speed, then the
// deterministic lifetime at it.
func (m LinkDurationModel) SampleDuration(rng *rand.Rand) float64 {
	return m.Duration(m.RelSpeed.Sample(rng))
}

// integrate computes E[f(Δv)] over the relative-speed density with a
// composite Simpson rule between its 1e-6 tail quantiles, μ ± 4.75σ. A
// relative speed without spread (σ ≤ 0) is a point mass at its mean.
func (m LinkDurationModel) integrate(f func(dv float64) float64) float64 {
	d := m.RelSpeed
	if !(d.Sigma > 0) {
		return f(d.Mean())
	}
	lo, hi := d.tailWindow()
	if hi <= lo {
		return f(d.Mean())
	}
	const n = 400 // even
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
	// Normalise by the captured probability mass so truncation of the
	// tails does not bias the expectation.
	mass := d.CDF(hi) - d.CDF(lo)
	if mass <= 0 {
		return f(d.Mean())
	}
	return val / mass
}

// Stability is the TBP-SS routing metric: the mean link duration under the
// model, i.e. Expected() — exposed under the paper's name ("the routing
// metric is the mean link duration (defined as stability)").
func (m LinkDurationModel) Stability() float64 { return m.Expected() }
