// Package prob implements the probability models the survey's Sec. VII
// protocols are built on: the standard distributions it lists for mobility
// parameters (speed and acceleration normally distributed, inter-vehicle
// gaps gamma/normal/log-normally distributed), link-duration models derived
// from them, receipt probability from log-normal shadowing (REAR), and
// road-segment connectivity probability (CAR).
package prob

import (
	"math"
	"math/rand"
)

// Dist is a one-dimensional probability distribution.
type Dist interface {
	// PDF returns the probability density at x.
	PDF(x float64) float64
	// CDF returns P(X ≤ x).
	CDF(x float64) float64
	// Mean returns the expected value.
	Mean() float64
	// Sample draws one variate using rng.
	Sample(rng *rand.Rand) float64
}

// Normal is the N(Mu, Sigma²) distribution. The survey notes speed and
// acceleration are commonly modelled as normal.
type Normal struct {
	Mu, Sigma float64
}

var _ Dist = Normal{}

// PDF implements Dist.
func (n Normal) PDF(x float64) float64 {
	if n.Sigma <= 0 {
		return 0
	}
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-0.5*z*z) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// CDF implements Dist.
func (n Normal) CDF(x float64) float64 {
	if n.Sigma <= 0 {
		if x < n.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// Mean implements Dist.
func (n Normal) Mean() float64 { return n.Mu }

// Sample implements Dist.
func (n Normal) Sample(rng *rand.Rand) float64 {
	return n.Mu + n.Sigma*rng.NormFloat64()
}

// Quantile returns the x with CDF(x) = p, in closed form.
func (n Normal) Quantile(p float64) float64 {
	return n.Mu + n.Sigma*math.Sqrt2*math.Erfinv(2*p-1)
}

// tailZ is the standard normal's 1e-6 tail quantile: Φ(−tailZ) = 1e-6.
const tailZ = 4.753424308822899

// tailWindow returns the 1e-6 and 1−1e-6 quantiles of n — the window the
// link-duration statistics integrate over — each to the bit what 80
// bisection steps of the CDF on [−1e4, 1e4] yield: every golden output
// was recorded with those windows, so Quantile's last bits will not do.
func (n Normal) tailWindow() (lo, hi float64) {
	return n.bisectTail(1e-6, n.Mu-tailZ*n.Sigma), n.bisectTail(1-1e-6, n.Mu+tailZ*n.Sigma)
}

// bisectTail bisects CDF(x) = p on [−1e4, 1e4] through the same midpoints
// as a plain 80-step bisection, given the analytic quantile q of one of
// the two 1e-6 tails, and spends an Erfc only on the midpoints within
// 1e-9·σ of q: about 23 of the 80. A midpoint farther off lies on the side
// of the quantile it appears to — there the CDF differs from p by 5e-15
// (in the lower tail, by 5e-9 of p), ten times what rounding in CDF, q
// and tailZ adds up to. And a midpoint equal to an end of the bracket ends
// the search: whichever way it is decided, the bracket stays as it is or
// collapses onto it, so every later midpoint is this one.
func (n Normal) bisectTail(p, q float64) float64 {
	lo, hi := -1e4, 1e4
	tol := 1e-9 * n.Sigma
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		if mid == lo || mid == hi {
			return mid
		}
		if mid < q-tol || !(mid > q+tol) && n.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// LogNormal is the distribution of exp(N(Mu, Sigma²)); the survey lists it
// for received signal strength and inter-vehicle distances.
type LogNormal struct {
	Mu, Sigma float64 // parameters of the underlying normal
}

var _ Dist = LogNormal{}

// PDF implements Dist.
func (l LogNormal) PDF(x float64) float64 {
	if x <= 0 || l.Sigma <= 0 {
		return 0
	}
	z := (math.Log(x) - l.Mu) / l.Sigma
	return math.Exp(-0.5*z*z) / (x * l.Sigma * math.Sqrt(2*math.Pi))
}

// CDF implements Dist.
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return Normal{Mu: l.Mu, Sigma: l.Sigma}.CDF(math.Log(x))
}

// Mean implements Dist.
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Sample implements Dist.
func (l LogNormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// Gamma is the Gamma(Shape k, Scale θ) distribution; the survey lists it
// for the distance between consecutive vehicles.
type Gamma struct {
	Shape, Scale float64
}

var _ Dist = Gamma{}

// PDF implements Dist.
func (g Gamma) PDF(x float64) float64 {
	if x < 0 || g.Shape <= 0 || g.Scale <= 0 {
		return 0
	}
	if x == 0 {
		if g.Shape < 1 {
			return math.Inf(1)
		}
		if g.Shape == 1 {
			return 1 / g.Scale
		}
		return 0
	}
	k, th := g.Shape, g.Scale
	lg, _ := math.Lgamma(k)
	return math.Exp((k-1)*math.Log(x) - x/th - lg - k*math.Log(th))
}

// CDF implements Dist via the regularised lower incomplete gamma function.
func (g Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return regIncGammaLower(g.Shape, x/g.Scale)
}

// Mean implements Dist.
func (g Gamma) Mean() float64 { return g.Shape * g.Scale }

// Sample implements Dist using the Marsaglia–Tsang method.
func (g Gamma) Sample(rng *rand.Rand) float64 {
	k := g.Shape
	if k < 1 {
		// boost: Gamma(k) = Gamma(k+1) * U^(1/k)
		u := rng.Float64()
		return Gamma{Shape: k + 1, Scale: g.Scale}.Sample(rng) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * g.Scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * g.Scale
		}
	}
}

// Exponential is the Exp(Rate) distribution, used for Poisson traffic
// arrivals and as the free-flow headway model.
type Exponential struct {
	Rate float64
}

var _ Dist = Exponential{}

// PDF implements Dist.
func (e Exponential) PDF(x float64) float64 {
	if x < 0 || e.Rate <= 0 {
		return 0
	}
	return e.Rate * math.Exp(-e.Rate*x)
}

// CDF implements Dist.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-e.Rate*x)
}

// Mean implements Dist.
func (e Exponential) Mean() float64 {
	if e.Rate <= 0 {
		return math.Inf(1)
	}
	return 1 / e.Rate
}

// Sample implements Dist.
func (e Exponential) Sample(rng *rand.Rand) float64 {
	return rng.ExpFloat64() / e.Rate
}

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct {
	Lo, Hi float64
}

var _ Dist = Uniform{}

// PDF implements Dist.
func (u Uniform) PDF(x float64) float64 {
	if x < u.Lo || x > u.Hi || u.Hi <= u.Lo {
		return 0
	}
	return 1 / (u.Hi - u.Lo)
}

// CDF implements Dist.
func (u Uniform) CDF(x float64) float64 {
	if x <= u.Lo {
		return 0
	}
	if x >= u.Hi {
		return 1
	}
	return (x - u.Lo) / (u.Hi - u.Lo)
}

// Mean implements Dist.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Sample implements Dist.
func (u Uniform) Sample(rng *rand.Rand) float64 {
	return u.Lo + rng.Float64()*(u.Hi-u.Lo)
}

// regIncGammaLower computes P(a, x), the regularised lower incomplete gamma
// function, by series expansion for x < a+1 and continued fraction
// otherwise (Numerical Recipes style).
func regIncGammaLower(a, x float64) float64 {
	if x <= 0 || a <= 0 {
		return 0
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		// series
		sum := 1 / a
		term := sum
		ap := a
		for i := 0; i < 500; i++ {
			ap++
			term *= x / ap
			sum += term
			if math.Abs(term) < math.Abs(sum)*1e-15 {
				break
			}
		}
		return sum * math.Exp(-x+a*math.Log(x)-lg)
	}
	// continued fraction for Q(a,x), then P = 1 − Q.
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	q := math.Exp(-x+a*math.Log(x)-lg) * h
	return 1 - q
}
