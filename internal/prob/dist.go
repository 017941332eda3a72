// Package prob implements the probability models the survey's Sec. VII
// protocols are built on: the normal distribution it lists for speed,
// link-duration models derived from a normal relative speed, receipt
// probability from log-normal shadowing (REAR), and road-segment
// connectivity probability (CAR).
package prob

import "math"

// Normal is the N(Mu, Sigma²) distribution. The survey notes speed and
// acceleration are commonly modelled as normal.
type Normal struct {
	Mu, Sigma float64
}

// PDF returns the probability density at x.
func (n Normal) PDF(x float64) float64 {
	if n.Sigma <= 0 {
		return 0
	}
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-0.5*z*z) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// CDF returns P(X ≤ x).
func (n Normal) CDF(x float64) float64 {
	if n.Sigma <= 0 {
		if x < n.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// tailZ is the standard normal's 1e-6 tail quantile: Φ(−tailZ) = 1e-6.
const tailZ = 4.753424308822899

// tailWindow returns the 1e-6 and 1−1e-6 quantiles of n — the window
// SurvivalProb integrates over — each to the bit what 80
// bisection steps of the CDF on [−1e4, 1e4] yield: every golden output
// was recorded with those windows, so the closed-form quantile's last bits
// will not do.
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
