// Package prob implements the probability models the survey's Sec. VII
// protocols are built on: the normal distribution it lists for speed,
// link-duration models derived from a normal relative speed, receipt
// probability from log-normal shadowing (REAR), and road-segment
// connectivity probability (CAR).
package prob

// Normal is the N(Mu, Sigma²) distribution. The survey notes speed and
// acceleration are commonly modelled as normal.
type Normal struct {
	Mu, Sigma float64
}

// tailZ is the standard normal's 1e-6 tail quantile: Φ(−tailZ) = 1e-6.
const tailZ = 4.753424308822899
