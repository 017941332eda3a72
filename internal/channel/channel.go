// Package channel models wireless propagation between vehicles: whether a
// frame transmitted at one position is decodable at another, the received
// signal strength (for protocols like REAR that act on RSSI), and the
// carrier-sense range (for the MAC's collision bookkeeping).
package channel

import (
	"math"
	"math/rand"

	"github.com/vanetlab/relroute/internal/prob"
)

// Model decides frame reception.
type Model interface {
	// MaxRange returns a conservative upper bound on the distance at which
	// reception is possible; the MAC uses it to prune candidate receivers.
	MaxRange() float64
	// Decodable reports whether a frame sent over distance d is received,
	// given channel randomness from rng.
	Decodable(d float64, rng *rand.Rand) bool
	// RSSI returns the received signal strength in dBm for a frame over
	// distance d, including the random shadowing realisation.
	RSSI(d float64, rng *rand.Rand) float64
	// MeanRange returns the distance at which reception probability is
	// 50%, used to parameterise analytic link-lifetime models (their r).
	MeanRange() float64
}

// Precomputed is implemented by models whose per-receiver reception
// decision splits into a deterministic per-distance term and a cheap
// stochastic decision. The deterministic term — the link budget at a given
// distance — is what the radio neighborhood cache precomputes once per
// mobility epoch, so the MAC's transmit loop never re-runs the path-loss
// math (Log10/Erfc) per frame.
//
// The contract is strict: DecodableAt(PathLoss(d), rng) must consume
// exactly the same RNG draws and return exactly the same result as
// Decodable(d, rng) for every d, so the cached and uncached transmit paths
// are byte-identical run for run (the golden-file tests rely on this).
type Precomputed interface {
	// PathLoss returns the deterministic part of the link budget at
	// distance d. The value is opaque to callers and only meaningful to
	// DecodableAt of the same model: UnitDisk returns the distance itself,
	// Shadowing folds the log-distance path loss through the receiver
	// threshold into a receipt probability.
	PathLoss(d float64) float64
	// DecodableAt decides reception from a value PathLoss returned.
	DecodableAt(loss float64, rng *rand.Rand) bool
}

// BatchPrecomputed is implemented by Precomputed models that can fill a
// whole slice of link budgets in one call. The radio sweep's inner loop
// uses it so the per-pair cost is a concrete method dispatched once per
// batch instead of an interface call per pair.
//
// PathLossInto must write exactly PathLoss(dists[i]) into dst[i] for every
// i — same expression, bit for bit — so batch-built neighborhoods are
// indistinguishable from per-pair ones. dst and dists must have the same
// length and may not overlap.
type BatchPrecomputed interface {
	Precomputed
	PathLossInto(dst, dists []float64)
}

// UnitDisk is the idealised model: every frame within Range is received,
// nothing beyond. It keeps analytic results exact, so the Fig. 3 lifetime
// validation uses it.
type UnitDisk struct {
	Range float64 // meters
}

var _ Model = UnitDisk{}

// MaxRange implements Model.
func (u UnitDisk) MaxRange() float64 { return u.Range }

// MeanRange implements Model.
func (u UnitDisk) MeanRange() float64 { return u.Range }

// Decodable implements Model.
func (u UnitDisk) Decodable(d float64, _ *rand.Rand) bool { return d <= u.Range }

var _ Precomputed = UnitDisk{}

// PathLoss implements Precomputed: the unit disk's only link-budget input
// is the distance itself.
func (u UnitDisk) PathLoss(d float64) float64 { return d }

// DecodableAt implements Precomputed.
func (u UnitDisk) DecodableAt(loss float64, _ *rand.Rand) bool { return loss <= u.Range }

var _ BatchPrecomputed = UnitDisk{}

// PathLossInto implements BatchPrecomputed: the unit disk's link budget is
// the distance itself, so the batch is a copy.
func (u UnitDisk) PathLossInto(dst, dists []float64) { copy(dst, dists) }

// RSSI implements Model with a deterministic log-distance curve so RSSI
// ordering still reflects distance.
func (u UnitDisk) RSSI(d float64, _ *rand.Rand) float64 {
	if d < 1 {
		d = 1
	}
	return 20 - 46.7 - 28*math.Log10(d)
}

// Shadowing is the log-normal shadowing model the survey lists as the
// standard signal-strength assumption: received power is normally
// distributed in dB around the log-distance path loss, and a frame is
// decodable when it exceeds the receiver threshold.
type Shadowing struct {
	receipt prob.ReceiptModel
	// cutoffProb prunes the model's unbounded tail: distances whose
	// receipt probability falls below it are treated as out of range.
	cutoffProb float64

	// both ranges are bisections of the receipt model, done once here:
	// the model cannot change after NewShadowing
	maxRange, meanRange float64
}

// NewShadowing returns a shadowing channel for the given receipt model,
// with the tail cut off at a receipt probability of 0.01.
func NewShadowing(m prob.ReceiptModel) *Shadowing {
	s := &Shadowing{receipt: m, cutoffProb: 0.01, meanRange: m.MedianRange()}
	s.maxRange = s.computeMaxRange()
	return s
}

var _ Model = (*Shadowing)(nil)

// Receipt returns the receipt model the channel was built from.
func (s *Shadowing) Receipt() prob.ReceiptModel { return s.receipt }

// CutoffProb returns the receipt probability below which a distance
// counts as out of range.
func (s *Shadowing) CutoffProb() float64 { return s.cutoffProb }

func (s *Shadowing) computeMaxRange() float64 {
	lo, hi := 1.0, 20000.0
	if s.receipt.Prob(hi) > s.cutoffProb {
		return hi
	}
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if s.receipt.Prob(mid) > s.cutoffProb {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// MaxRange implements Model.
func (s *Shadowing) MaxRange() float64 { return s.maxRange }

// MeanRange implements Model.
func (s *Shadowing) MeanRange() float64 { return s.meanRange }

// Decodable implements Model: Bernoulli draw with the distance-dependent
// receipt probability. Defined as the composition of the Precomputed pair
// so the split API can never drift from it.
func (s *Shadowing) Decodable(d float64, rng *rand.Rand) bool {
	return s.DecodableAt(s.PathLoss(d), rng)
}

var _ Precomputed = (*Shadowing)(nil)

// PathLoss implements Precomputed. The whole deterministic chain — mean
// path loss at d, received power, threshold margin — folds into a single
// number, the receipt probability, so it is returned directly: caching it
// leaves only a uniform draw per frame. (Comparing a Gaussian shadowing
// sample against the threshold would be distribution-equivalent but would
// consume different RNG draws than Decodable; see the interface contract.)
func (s *Shadowing) PathLoss(d float64) float64 { return s.receipt.Prob(d) }

// DecodableAt implements Precomputed: the stochastic tail of Decodable,
// draw for draw.
func (s *Shadowing) DecodableAt(loss float64, rng *rand.Rand) bool {
	if loss >= 1 {
		return true
	}
	if loss <= 0 {
		return false
	}
	return rng.Float64() < loss
}

var _ BatchPrecomputed = (*Shadowing)(nil)

// PathLossInto implements BatchPrecomputed: the same receipt-probability
// chain as PathLoss, evaluated as a direct concrete-method loop.
func (s *Shadowing) PathLossInto(dst, dists []float64) {
	if len(dists) == 0 {
		return
	}
	_ = dst[len(dists)-1] // one bounds check for the loop
	for i, d := range dists {
		dst[i] = s.receipt.Prob(d)
	}
}

// RSSI implements Model: mean path-loss power plus a shadowing draw.
func (s *Shadowing) RSSI(d float64, rng *rand.Rand) float64 {
	mean := s.receipt.MeanRxPower(d)
	if s.receipt.ShadowSigmaDB <= 0 || rng == nil {
		return mean
	}
	return mean + s.receipt.ShadowSigmaDB*rng.NormFloat64()
}
