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

// down reports a gap already outside the range: T ≡ 0.
func (m LinkDurationModel) down() bool { return math.Abs(m.Gap) > m.Range }

// lifetime is T(dv) truncated to the horizon, over what a model holds fixed:
// whether the gap is already outside the range, and the two distances of
// Eqn (4), ahead = r − d₀ for a sender pulling away and behind = r + d₀ for
// one falling back.
func lifetime(down bool, ahead, behind, horizon, dv float64) float64 {
	if down {
		return 0
	}
	var t float64
	switch {
	case dv > 0:
		t = ahead / dv
	case dv < 0:
		t = behind / -dv
	default:
		return horizon
	}
	if t > horizon {
		return horizon
	}
	return t
}

// Duration returns T(dv), the deterministic lifetime at relative speed dv,
// truncated to the horizon. A gap already outside the range yields 0.
func (m LinkDurationModel) Duration(dv float64) float64 {
	return lifetime(m.down(), m.Range-m.Gap, m.Range+m.Gap, m.horizon(), dv)
}

// Expected returns E[min(T, horizon)], the "expected link duration" routing
// metric of the Yan ticket-probing protocol, integrating the deterministic
// lifetime over the relative-speed distribution with Simpson's rule.
func (m LinkDurationModel) Expected() float64 {
	return m.integrate(false, 0)
}

// SurvivalProb returns P(T > t): the probability the link is still up after
// t seconds, the quantity GVGrid and NiuDe-style protocols threshold on.
func (m LinkDurationModel) SurvivalProb(t float64) float64 {
	if t <= 0 {
		if m.down() {
			return 0
		}
		return 1
	}
	return m.integrate(true, t)
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

// integrand is what the statistics integrate at relative speed dv: T(dv)
// for the expectation, the indicator of T(dv) > at for the survival
// probability.
func (m LinkDurationModel) integrand(dv float64, survival bool, at float64) float64 {
	return pick(m.Duration(dv), survival, at)
}

// pick is the integrand where the lifetime is t.
func pick(t float64, survival bool, at float64) float64 {
	if !survival {
		return t
	}
	if t > at {
		return 1
	}
	return 0
}

// integrate computes E[T(Δv)] — with survival set, P(T(Δv) > at) — over the
// relative-speed density with a composite Simpson rule between its 1e-6
// tail quantiles, μ ± 4.75σ. A relative speed without spread (σ ≤ 0) is a
// point mass at its mean. Every golden output holds these sums to the bit:
// a term is rounded as Duration(x)·RelSpeed.PDF(x) is and added in node
// order, and what does not depend on the node is read once.
func (m LinkDurationModel) integrate(survival bool, at float64) float64 {
	d := m.RelSpeed
	mu, sigma := d.Mu, d.Sigma
	if !(sigma > 0) {
		return m.integrand(mu, survival, at)
	}
	den := sigma * math.Sqrt(2*math.Pi)
	// A node whose integrand is 0 adds w·0·pdf. That is +0, and leaves the
	// sum (never −0) as it is, only where the density is finite: everywhere
	// when 1/den is, since pdf ≤ 1/den — a subnormal σ overflows it at the
	// mean, and the sum then holds 0·∞. (A mean that is no number would
	// make z one, but it leaves no window to sum over.)
	finite := 1/den <= math.MaxFloat64
	down := m.down()
	if down && finite {
		return 0
	}
	lo, hi := d.tailWindow()
	if hi <= lo {
		return m.integrand(mu, survival, at)
	}
	ahead, behind, horizon := m.Range-m.Gap, m.Range+m.Gap, m.horizon()
	skipZeros := survival && finite
	const n = 400 // even
	h := (hi - lo) / n
	sum := m.integrand(lo, survival, at)*d.PDF(lo) + m.integrand(hi, survival, at)*d.PDF(hi)
	for i := 1; i < n; i++ {
		x := lo + float64(i)*h
		v := pick(lifetime(down, ahead, behind, horizon, x), survival, at)
		if skipZeros && v == 0 {
			continue
		}
		w := 2.0
		if i%2 == 1 {
			w = 4
		}
		z := (x - mu) / sigma
		sum += w * v * (math.Exp(-0.5*z*z) / den)
	}
	val := sum * h / 3
	// Normalise by the captured probability mass so truncation of the
	// tails does not bias the expectation.
	mass := d.CDF(hi) - d.CDF(lo)
	if mass <= 0 {
		return m.integrand(mu, survival, at)
	}
	return val / mass
}

// Stability is the TBP-SS routing metric: the mean link duration under the
// model, i.e. Expected() — exposed under the paper's name ("the routing
// metric is the mean link duration (defined as stability)").
func (m LinkDurationModel) Stability() float64 { return m.Expected() }
