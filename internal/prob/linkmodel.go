package prob

import "math"

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
	const n = simpsonPanels
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

// simpsonPanels is the panel count of integrate's composite Simpson rule:
// simpsonPanels+1 nodes, lo + i·h for i = 0 … simpsonPanels.
const simpsonPanels = 400 // even

// boundBlock is a run of consecutive Simpson nodes, read over N(0, 1):
// the z of its first and last node, and the share of integrate's
// normalised sum (Σ w·pdf·h/3 over the block, divided by the captured
// mass) its nodes carry. A model's nodes lie at μ + σ·z up to the window
// and rounding errors ExpectedBound's widening covers.
type boundBlock struct{ zLo, zHi, mass float64 }

// boundBlocks splits the Simpson nodes into runs of ten, the last one
// eleven, built once through the window and node arithmetic integrate
// uses.
var boundBlocks = func() (t [simpsonPanels / 10]boundBlock) {
	d := Normal{Sigma: 1}
	lo, hi := d.tailWindow()
	h := (hi - lo) / simpsonPanels
	for i := 0; i <= simpsonPanels; i++ {
		x, w := lo+float64(i)*h, 2.0
		switch {
		case i == 0:
			w = 1
		case i == simpsonPanels:
			x, w = hi, 1
		case i%2 == 1:
			w = 4
		}
		b := &t[min(i/10, len(t)-1)]
		if i%10 == 0 && i < simpsonPanels {
			b.zLo = x
		}
		b.zHi = x
		b.mass += w * d.PDF(x)
	}
	norm := h / 3 / (d.CDF(hi) - d.CDF(lo))
	for i := range t {
		t[i].mass *= norm
	}
	return t
}()

// boundWiden is the relative slack ExpectedBound adds, to each block's Δv
// interval (times σ) and to its total.
const boundWiden = 1e-6

// ExpectedBound returns a number never below Expected(), in closed form:
// about 40 divisions, and no Erfc or Exp. It is what a caller that keeps
// only the best few links ranks them by before it integrates any.
//
// Expected is a normalised Simpson sum Σ w_i·T(x_i)·pdf(x_i)·h/3 / mass
// over 401 nodes x_i; every weight and density is positive. Split the
// nodes into blocks; on a block whose nodes lie in [a, c], T is at most its
// value at the end nearer Δv = 0 — T(Δv) = ahead/Δv falls for Δv > 0 and
// behind/−Δv rises for Δv < 0, a correctly rounded division is monotone in
// its divisor, and so is the cap at the horizon — and at most the horizon
// on a block that straddles 0. So Expected ≤ Σ_blocks T_block·mass_block,
// where mass_block is the block's share of the normalised sum. Both the
// block edges and the masses are read from boundBlocks, built over
// N(0, 1), and the model's own differ from them only by:
//   - the window: bisectTail never ends more than 1e-9·σ from μ ± tailZ·σ
//     once its 80 halvings of [−1e4, 1e4], 1.7e-20 apart, resolve that, at
//     σ ≥ 1e-10; so node i moves by at most 2e-9·σ;
//   - rounding in lo + i·h and μ + σ·z: a few units in the last place of
//     |μ| + 5σ, at most 1e-9·σ when |μ| ≤ 1e6·σ;
//   - the masses' drift: z moves by under 1e-8, which changes each density
//     by under 5e-8 of itself (|z| ≤ 4.76), h and the captured mass by
//     less; the 401-term sums round by under 1e-13 of themselves.
//
// Widening each block by boundWiden·σ on both sides covers the first two a
// hundredfold, and multiplying the total by 1 + boundWiden the third.
//
// The argument needs a window that is μ ± tailZ·σ inside integrate's
// bisection bracket [−1e4, 1e4], a finite density and distances that are
// numbers. Wherever one fails — σ not finite and positive, 1/(σ√2π)
// overflowing, σ < 1e-10, μ not finite, |μ| > 1e6·σ, |μ| + 5σ > 1e4, a
// horizon or a distance of Eqn (4) that is no number — the bound is +Inf.
// A gap already outside the range answers 0, as Expected does.
func (m LinkDurationModel) ExpectedBound() float64 {
	mu, sigma := m.RelSpeed.Mu, m.RelSpeed.Sigma
	if !(sigma > 0) || 1/(sigma*math.Sqrt(2*math.Pi)) > math.MaxFloat64 {
		return math.Inf(1)
	}
	if m.down() {
		return 0
	}
	ahead, behind, horizon := m.Range-m.Gap, m.Range+m.Gap, m.horizon()
	if !(sigma >= 1e-10 && math.Abs(mu) <= 1e6*sigma && math.Abs(mu)+5*sigma <= 1e4) ||
		!(ahead >= 0 && behind >= 0) || horizon != horizon {
		return math.Inf(1)
	}
	sum := 0.0
	for _, b := range &boundBlocks {
		t := horizon
		if a := mu + sigma*(b.zLo-boundWiden); a > 0 {
			t = min(ahead/a, horizon)
		} else if c := mu + sigma*(b.zHi+boundWiden); c < 0 {
			t = min(behind/-c, horizon)
		}
		sum += b.mass * t
	}
	return sum * (1 + boundWiden)
}
