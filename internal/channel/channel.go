// Package channel models wireless propagation between vehicles: whether a
// frame transmitted at one position is decodable at another, the received
// signal strength (for protocols like REAR that act on RSSI), and the
// carrier-sense range (for the MAC's collision bookkeeping).
//
// Model.Decodable is the one reception path: the radio cache stores
// distances only, and the MAC calls Decodable per candidate receiver per
// frame. UnitDisk compares; Shadowing settles most draws from a per-meter
// bracket table of its receipt probability and evaluates the Log10 → Erfc
// formula only for a draw that lands inside a bucket's bracket — verdict
// for verdict and draw for draw what the formula alone decides (see
// Shadowing.Decodable). Precomputed is kept for bench/replay.go only, see
// ROADMAP item 5.
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

// Precomputed is Model.Decodable under two more names: PathLoss is the
// identity and DecodableAt is Decodable. Nothing in the simulator calls
// them; kept for bench/replay.go only, which type-asserts the interface by
// name — see ROADMAP item 5.
type Precomputed interface {
	// PathLoss returns d.
	PathLoss(d float64) float64
	// DecodableAt is Model.Decodable.
	DecodableAt(d float64, rng *rand.Rand) bool
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

// PathLoss implements Precomputed.
func (u UnitDisk) PathLoss(d float64) float64 { return d }

// DecodableAt implements Precomputed.
func (u UnitDisk) DecodableAt(d float64, rng *rand.Rand) bool { return u.Decodable(d, rng) }

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

	// table[i] brackets receipt.Prob over [i·bucketWidth, (i+1)·bucketWidth)
	// out to maxRange, so Decodable settles most draws without the
	// Log10 → Erfc chain; see buildTable.
	table []bracket
}

// bracket bounds the receipt probability over one distance bucket:
// lo < receipt.Prob(d) < hi for every d in it. The zero value marks a
// bucket the table cannot decide.
type bracket struct{ lo, hi float64 }

const (
	// bucketWidth is the table's resolution in meters. At one meter the
	// widest bracket of the default model spans 0.005, so one draw in two
	// hundred at most still evaluates the exact probability. A power of
	// two keeps d/bucketWidth and i·bucketWidth exact: no distance is
	// looked up in its neighbor's bucket.
	bucketWidth = 1.0
	// bracketEps widens every bracket. Prob is monotone in d as mathematics
	// but is computed through Log10 and Erfc with a rounding error near
	// 1e-14; five orders of slack make the bracket of the curve's values at
	// the bucket edges bound the computed value at every d between them.
	bracketEps = 1e-9
)

// NewShadowing returns a shadowing channel for the given receipt model,
// with the tail cut off at a receipt probability of 0.01.
func NewShadowing(m prob.ReceiptModel) *Shadowing {
	s := &Shadowing{receipt: m, cutoffProb: 0.01, meanRange: m.MedianRange()}
	s.maxRange = s.computeMaxRange()
	s.buildTable()
	return s
}

var _ Model = (*Shadowing)(nil)

// Receipt returns the receipt model the channel was built from.
func (s *Shadowing) Receipt() prob.ReceiptModel { return s.receipt }

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

// buildTable fills one bracket per bucket out to maxRange from receipt.Prob
// at the bucket edges, which bound it in between because Prob falls with
// distance when the path-loss exponent is not negative. A bracket is kept
// only when it lies strictly inside (0, 1): there the exact decision always
// draws exactly one uniform, so Decodable may draw it before knowing the
// probability. Every other bucket — Prob within bracketEps of 0 or 1, where
// the exact path may draw nothing, or NaN — keeps the zero bracket and is
// decided exactly, as is every distance of a σ ≤ 0 step model.
func (s *Shadowing) buildTable() {
	if !(s.receipt.ShadowSigmaDB > 0 && s.receipt.PathLossExp >= 0) {
		return
	}
	s.table = make([]bracket, int(s.maxRange/bucketWidth)+1)
	hi := s.receipt.Prob(0) + bracketEps
	for i := range s.table {
		p := s.receipt.Prob(float64(i+1) * bucketWidth)
		if lo := p - bracketEps; 0 < lo && hi < 1 {
			s.table[i] = bracket{lo, hi}
		}
		hi = p + bracketEps
	}
}

// MaxRange implements Model.
func (s *Shadowing) MaxRange() float64 { return s.maxRange }

// MeanRange implements Model.
func (s *Shadowing) MeanRange() float64 { return s.meanRange }

// Decodable implements Model: a Bernoulli draw with the distance-dependent
// receipt probability p, decided as decodeExact decides it — the same
// verdict from the same single uniform u — but usually without computing
// p: in a bucket whose bracket lo < p < hi is known, u < lo is a reception
// and u ≥ hi a loss whatever p is, and only a u inside the band needs it.
func (s *Shadowing) Decodable(d float64, rng *rand.Rand) bool {
	// written so that NaN, like a negative d or one past the table, fails
	if i := d / bucketWidth; i >= 0 && i < float64(len(s.table)) {
		if b := s.table[int(i)]; b.lo > 0 {
			u := rng.Float64()
			if u < b.lo {
				return true
			}
			if u >= b.hi {
				return false
			}
			return u < s.receipt.Prob(d)
		}
	}
	return s.decodeExact(d, rng)
}

// decodeExact evaluates the receipt probability first and draws only when
// it is strictly inside (0, 1).
func (s *Shadowing) decodeExact(d float64, rng *rand.Rand) bool {
	p := s.receipt.Prob(d)
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return rng.Float64() < p
}

// PathLoss implements Precomputed.
func (s *Shadowing) PathLoss(d float64) float64 { return d }

// DecodableAt implements Precomputed.
func (s *Shadowing) DecodableAt(d float64, rng *rand.Rand) bool { return s.Decodable(d, rng) }

// RSSI implements Model: mean path-loss power plus a shadowing draw.
func (s *Shadowing) RSSI(d float64, rng *rand.Rand) float64 {
	mean := s.receipt.MeanRxPower(d)
	if s.receipt.ShadowSigmaDB <= 0 || rng == nil {
		return mean
	}
	return mean + s.receipt.ShadowSigmaDB*rng.NormFloat64()
}
