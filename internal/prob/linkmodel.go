package prob

import (
	"math"
	"slices"
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
// expressed by the RelSpeed distribution: SurvivalProb is one normal
// probability in closed form, Expected adds two Gauss–Legendre tails.
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

// Duration returns T(dv), the deterministic lifetime at relative speed dv,
// truncated to the horizon. A gap already outside the range yields 0.
func (m LinkDurationModel) Duration(dv float64) float64 {
	if m.down() {
		return 0
	}
	var t float64
	switch {
	case dv > 0:
		t = (m.Range - m.Gap) / dv
	case dv < 0:
		t = (m.Range + m.Gap) / -dv
	default:
		return m.horizon()
	}
	if h := m.horizon(); t > h {
		return h
	}
	return t
}

// Expected returns E[min(T, horizon)], the "expected link duration" routing
// metric of the Yan ticket-probing protocol, over the whole relative-speed
// normal. With a = r − d₀, b = r + d₀ and the horizon H, min(T, H) is H
// between the kinks −b/H < Δv < a/H, a/Δv above them and b/−Δv below, so
//
//	E = H·P(−b/H < Δv < a/H) + a·∫_{a/H}^∞ φ(v)/v dv + b·∫_{b/H}^∞ φ₋(u)/u du,
//
// φ the density of Δv and φ₋ that of −Δv. The first term is two Erfc; each
// tail is a fixed Gauss–Legendre rule in s = ln v (see tailIntegral). A
// relative speed without spread (σ ≤ 0), or one so narrow its density
// overflows, is a point mass at its mean; a link already down answers 0.
func (m LinkDurationModel) Expected() float64 {
	return m.expected(glNodes[:], glWeights[:])
}

// expected is Expected under the Gauss–Legendre rule with the given
// non-negative nodes and their weights (a node of 0 counted once).
func (m LinkDurationModel) expected(nodes, weights []float64) float64 {
	mu, sigma := m.RelSpeed.Mu, m.RelSpeed.Sigma
	if m.down() {
		return 0
	}
	if !(sigma > 0) || 1/(sigma*math.Sqrt(2*math.Pi)) > math.MaxFloat64 {
		return m.Duration(mu)
	}
	ahead, behind, h := m.Range-m.Gap, m.Range+m.Gap, m.horizon()
	if math.IsInf(h, 1) && ahead+behind > 0 {
		return h // E[T] diverges: T → ∞ as Δv → 0
	}
	e := 0.0
	if p := normalBetween(-behind/h, ahead/h, mu, sigma); p > 0 {
		e = h * p
	}
	for _, tail := range [2]struct{ dist, mean float64 }{{ahead, mu}, {behind, -mu}} {
		if tail.dist == 0 {
			continue
		}
		// t > 0 also keeps out ∞·0: an infinite distance has no tail
		if t := tailIntegral(tail.dist/h, tail.mean, sigma, nodes, weights); t > 0 {
			e += tail.dist * t
		}
	}
	return min(e, h)
}

// normalBetween returns P(lo < X < hi) under N(mu, sigma²) from Erfc of
// the side each end lies on, so a narrow interval in one tail does not
// cancel to 0 and one across the mean adds two positive terms.
func normalBetween(lo, hi, mu, sigma float64) float64 {
	zl, zh := (lo-mu)/(sigma*math.Sqrt2), (hi-mu)/(sigma*math.Sqrt2)
	switch {
	case zl >= 0:
		return 0.5 * (math.Erfc(zl) - math.Erfc(zh))
	case zh <= 0:
		return 0.5 * (math.Erfc(-zh) - math.Erfc(-zl))
	}
	return 0.5 * (math.Erf(zh) - math.Erf(zl))
}

// tailIntegral returns ∫_c^∞ φ(v)/v dv for c ≥ 0 and φ the N(mu, sigma²)
// density. After v = eˢ it is ∫ φ(eˢ) ds, smooth even where c is tiny
// against σ. It runs over [max(c, μ − 9σ), μ + √(d² + 81σ²)], d = max(c − μ,
// 0): beyond either end the density is below e^−40.5 of its peak on [c, ∞)
// (for a kink at or below the mean, d = 0 and the window is μ ± 9σ).
// Panels end at μ − 3σ and μ + √(d² + 9σ²), where that density has fallen
// by e^−4.5, and at v = σ, below which it barely changes while ln v runs on
// down to ln c; each panel is one Gauss–Legendre rule.
func tailIntegral(c, mu, sigma float64, nodes, weights []float64) float64 {
	d := max(c-mu, 0)
	lo := max(c, mu-9*sigma, math.SmallestNonzeroFloat64)
	hi := min(mu+math.Hypot(d, 9*sigma), math.MaxFloat64)
	if !(lo < hi) {
		return 0
	}
	// the panel ends: three cuts, sorted, then hi
	e := [4]float64{sigma, mu - 3*sigma, mu + math.Hypot(d, 3*sigma), hi}
	slices.Sort(e[:3])
	sum, s0 := 0.0, math.Log(lo)
	for _, v := range e {
		if !(v > lo && v <= hi) {
			continue
		}
		s1 := math.Log(v)
		sum += glPanel(s0, s1, mu, 1/sigma, nodes, weights)
		s0, lo = s1, v
	}
	return sum / (sigma * math.Sqrt(2*math.Pi))
}

// glPanel is the Gauss–Legendre sum of exp(−z²/2), z = (eˢ − μ)/σ, over
// [s0, s1], given 1/σ. The nodes come in pairs mid ± hw·x, so eˢ is e^mid
// times and over e^(hw·x): one Exp for both.
func glPanel(s0, s1, mu, invSigma float64, nodes, weights []float64) float64 {
	mid, hw := 0.5*(s0+s1), 0.5*(s1-s0)
	em := math.Exp(mid)
	sum := 0.0
	for i, x := range nodes {
		if x == 0 {
			z := (em - mu) * invSigma
			sum += weights[i] * math.Exp(-0.5*z*z)
			continue
		}
		ex := math.Exp(hw * x)
		up, dn := (em*ex-mu)*invSigma, (em/ex-mu)*invSigma
		sum += weights[i] * (math.Exp(-0.5*up*up) + math.Exp(-0.5*dn*dn))
	}
	return hw * sum
}

// glPoints is the node count of each tail panel's Gauss–Legendre rule: the
// smallest that holds Expected within 1e-10 relative of a fine reference
// on every model TestExpectedMatchesReference tries.
const glPoints = 17

// glNodes are that rule's non-negative nodes, descending to its middle node
// 0, and glWeights their weights. They are literals, rounded from a 256-bit
// Newton iteration, so Expected does not depend on the platform's math.Cos;
// TestGaussLegendreTable recomputes them.
var (
	glNodes = [(glPoints + 1) / 2]float64{
		0.9905754753144174, 0.9506755217687678, 0.8802391537269859,
		0.7815140038968014, 0.6576711592166907, 0.5126905370864769,
		0.3512317634538763, 0.17848418149584785, 0,
	}
	glWeights = [(glPoints + 1) / 2]float64{
		0.02414830286854793, 0.0554595293739872, 0.08503614831717918,
		0.11188384719340397, 0.13513636846852548, 0.15404576107681028,
		0.16800410215645004, 0.17656270536699264, 0.17944647035620653,
	}
)

// SurvivalProb returns P(T > t): the probability the link is still up after
// t seconds, the quantity GVGrid and NiuDe-style protocols threshold on.
// Below the horizon T > t exactly when −(r + d₀)/t < Δv < (r − d₀)/t, so it
// is one normalBetween; a relative speed without spread (σ ≤ 0) is a point
// mass at its mean. A link already down answers 0, t ≤ 0 answers 1, and t
// at or past the horizon, which truncates T, answers 0.
func (m LinkDurationModel) SurvivalProb(t float64) float64 {
	switch {
	case m.down():
		return 0
	case t <= 0:
		return 1
	case t >= m.horizon():
		return 0
	}
	mu, sigma := m.RelSpeed.Mu, m.RelSpeed.Sigma
	if !(sigma > 0) {
		if m.Duration(mu) > t {
			return 1
		}
		return 0
	}
	return normalBetween(-(m.Range+m.Gap)/t, (m.Range-m.Gap)/t, mu, sigma)
}

// boundBlock is an interval [zLo, zHi] of z = (Δv − μ)/σ and its
// probability under N(0, 1).
type boundBlock struct{ zLo, zHi, mass float64 }

// boundBlocks tile the real line: the two 1e-6 tails beyond ±tailZ and 40
// equal intervals between them, each mass from the Erfc of its own side of
// 0 (the middle edge is 0 exactly), built once.
var boundBlocks = func() (t [42]boundBlock) {
	const n = len(t) - 2
	edge := func(k int) float64 {
		switch k {
		case 0:
			return math.Inf(-1)
		case len(t):
			return math.Inf(1)
		}
		return tailZ * float64(2*(k-1)-n) / float64(n)
	}
	for i := range t {
		t[i] = boundBlock{edge(i), edge(i + 1), normalBetween(edge(i), edge(i+1), 0, 1)}
	}
	return t
}()

// boundWiden is the relative slack ExpectedBound adds, to each block's Δv
// interval (times σ) and to its total.
const boundWiden = 1e-6

// ExpectedBound returns a number never below Expected(), in closed form:
// 42 blocks, at most one division each, and no Erfc or Exp. It is what a
// caller that keeps only the best few links ranks them by before it
// integrates any.
//
// Expected is E[min(T(Δv), H)]. Cut the real line of Δv into the blocks
// μ + σ·[zLo, zHi] of boundBlocks. On a block, T is at most its value at
// the end nearer Δv = 0 — T(Δv) = ahead/Δv falls for Δv > 0 and
// behind/−Δv rises for Δv < 0, a correctly rounded division is monotone in
// its divisor, and so is the cap at the horizon — and at most the horizon
// on a block that holds 0. So Expected ≤ Σ_blocks T_block·mass_block. What
// the floating-point numbers add to that:
//   - rounding in μ + σ·z: a few units in the last place of |μ| + 5σ, under
//     1e-9·σ when |μ| ≤ 1e6·σ; widening each block by boundWiden·σ on both
//     sides covers it a thousandfold;
//   - rounding in the masses and the sums, a few 1e-16 of the total, and
//     the error of Expected's quadrature, within 1e-10 of it
//     (TestExpectedMatchesReference): multiplying the total by
//     1 + boundWiden covers both. (Expected leaves out the density beyond
//     its tail windows, which only lowers it.)
//
// Where the argument does not hold — σ not finite and positive, or so small
// that 1/(σ√2π) overflows and Expected takes Δv for a point mass, μ not
// finite or |μ| > 1e6·σ, a horizon or a distance of Eqn (4) that is no
// number — the bound is +Inf. A gap already outside the range answers 0, as
// Expected does.
func (m LinkDurationModel) ExpectedBound() float64 {
	mu, sigma := m.RelSpeed.Mu, m.RelSpeed.Sigma
	if !(sigma > 0) || 1/(sigma*math.Sqrt(2*math.Pi)) > math.MaxFloat64 {
		return math.Inf(1)
	}
	if m.down() {
		return 0
	}
	ahead, behind, horizon := m.Range-m.Gap, m.Range+m.Gap, m.horizon()
	if math.IsInf(sigma, 1) || !(math.Abs(mu) <= 1e6*sigma) ||
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
