package channel

import (
	"math"
	"math/rand"
	"testing"

	"github.com/vanetlab/relroute/internal/prob"
)

// oracleDecodable is Shadowing.Decodable as it was before the bracket
// table, kept here so the table is tested against the formula and not
// against itself: evaluate the receipt probability, draw one uniform only
// when it is strictly inside (0, 1).
func oracleDecodable(m prob.ReceiptModel, d float64, rng *rand.Rand) bool {
	p := m.Prob(d)
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return rng.Float64() < p
}

// receiptFor is scenario.channelReceiptFor, which this package cannot
// import: the default model with its threshold bisected to a median range
// of r. Options.Shadowing builds every simulated channel this way.
func receiptFor(r float64) prob.ReceiptModel {
	m := prob.DefaultReceiptModel()
	lo, hi := -120.0, -40.0
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		m.RxThreshDBm = mid
		if m.MedianRange() > r {
			lo = mid
		} else {
			hi = mid
		}
	}
	return m
}

func withSigma(sigma float64) prob.ReceiptModel {
	m := prob.DefaultReceiptModel()
	m.ShadowSigmaDB = sigma
	return m
}

func bracketModels() map[string]prob.ReceiptModel {
	ref10 := prob.DefaultReceiptModel()
	ref10.RefDist = 10
	return map[string]prob.ReceiptModel{
		"default":    prob.DefaultReceiptModel(),
		"range100":   receiptFor(100),
		"range250":   receiptFor(250),
		"range500":   receiptFor(500),
		"sigma0":     withSigma(0),
		"sigma1e-6":  withSigma(1e-6),
		"sigma40":    withSigma(40), // computeMaxRange's 20 km cap
		"refdist10":  ref10,
		"exponent-2": {TxPowerDBm: 20, RefLossDB: 46.7, RefDist: 1, PathLossExp: -2, ShadowSigmaDB: 4, RxThreshDBm: -20},
	}
}

// decided reports how many buckets the table decides and the widest band
// among them.
func (s *Shadowing) decided() (n int, widest float64) {
	for _, b := range s.table {
		if b.lo > 0 {
			n++
			widest = math.Max(widest, b.hi-b.lo)
		}
	}
	return n, widest
}

// TestBracketBoundsProb is the table's invariant: wherever a bracket is
// kept it lies strictly inside (0, 1) and strictly contains the computed
// receipt probability of every distance in its bucket — at both edges, one
// ulp inside and outside them, and at random distances in between.
func TestBracketBoundsProb(t *testing.T) {
	for name, m := range bracketModels() {
		t.Run(name, func(t *testing.T) {
			s := NewShadowing(m)
			if got, limit := float64(len(s.table)), s.MaxRange()/bucketWidth+2; got > limit {
				t.Fatalf("table has %v buckets, MaxRange %v allows %v", got, s.MaxRange(), limit)
			}
			check := func(d float64) {
				i := int(d / bucketWidth)
				if d < 0 || i >= len(s.table) || s.table[i].lo == 0 {
					return
				}
				b, p := s.table[i], m.Prob(d)
				if !(0 < b.lo && b.lo < p && p < b.hi && b.hi < 1) {
					t.Fatalf("d=%v bucket %d: want 0 < lo %v < Prob %v < hi %v < 1", d, i, b.lo, p, b.hi)
				}
			}
			for i := range s.table {
				edge := float64(i) * bucketWidth
				check(math.Nextafter(edge, math.Inf(-1)))
				check(edge)
				check(math.Nextafter(edge, math.Inf(1)))
			}
			n := 150_000
			if name == "default" {
				n = 1_000_000
			}
			rng := rand.New(rand.NewSource(11))
			for k := 0; k < n; k++ {
				check(rng.Float64() * s.MaxRange())
			}
		})
	}
}

// TestBracketCoverage pins what the table is for: on the models the
// simulator runs it decides all but the first few dozen meters, with bands
// narrow enough that the exact probability is rarely needed; a step model,
// a near-step whose every bucket touches 0 or 1, and a curve that rises
// with distance get no decision from it at all.
func TestBracketCoverage(t *testing.T) {
	for name, m := range bracketModels() {
		s := NewShadowing(m)
		n, widest := s.decided()
		switch name {
		case "sigma0", "sigma1e-6", "exponent-2":
			if n != 0 {
				t.Errorf("%s: %d buckets decided from the table, want none", name, n)
			}
		case "sigma40":
			if n == 0 {
				t.Errorf("%s: no bucket decided from the table", name)
			}
		default:
			if min := len(s.table) * 8 / 10; n < min || widest > 0.02 {
				t.Errorf("%s: %d of %d buckets decided (want ≥ %d), widest band %v (want ≤ 0.02)",
					name, n, len(s.table), min, widest)
			}
		}
	}
	// the default model's numbers, as the package comment quotes them
	s := NewShadowing(prob.DefaultReceiptModel())
	first := 0
	for s.table[first].lo == 0 {
		first++
	}
	if _, widest := s.decided(); first < 30 || first > 45 || widest > 0.0051 {
		t.Errorf("default model: first decided bucket %d (want ≈ 36), widest band %v (want ≈ 0.00505)", first, widest)
	}
}

// TestBracketTwinStreams runs Decodable and the oracle on twin streams:
// the same verdict and the same stream position after every call, over
// more than 10⁶ (distance, seed) pairs and the distances no bucket holds.
func TestBracketTwinStreams(t *testing.T) {
	pairs := 0
	for name, m := range bracketModels() {
		s := NewShadowing(m)
		special := []float64{
			0, -1, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
			s.MaxRange(), math.Nextafter(s.MaxRange(), math.Inf(1)),
			float64(len(s.table)) * bucketWidth, math.Nextafter(float64(len(s.table))*bucketWidth, 0),
		}
		for seed := int64(1); seed <= 4; seed++ {
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			dists := rand.New(rand.NewSource(100 + seed))
			for k := 0; k < 32_000; k++ {
				// a tenth past the table, a few at its corners, the rest
				// where the radio cache's links are
				d := dists.Float64() * 1.1 * s.MaxRange()
				if k%64 == 0 {
					d = special[(k/64)%len(special)]
				}
				if a, b := s.Decodable(d, got), oracleDecodable(m, d, want); a != b {
					t.Fatalf("%s seed %d d=%v: Decodable %v, oracle %v", name, seed, d, a, b)
				}
				if a, b := got.Int63(), want.Int63(); a != b {
					t.Fatalf("%s seed %d d=%v: streams diverged", name, seed, d)
				}
				pairs++
			}
		}
	}
	if pairs < 1_000_000 {
		t.Fatalf("only %d pairs", pairs)
	}
}

// script is a rand.Source that returns one fixed Int63 and counts how often
// it was taken.
type script struct {
	v     int64
	taken int
}

func (s *script) Int63() int64 { s.taken++; return s.v }
func (s *script) Seed(int64)   {}

// TestBracketScriptedDraws puts the uniform exactly where the three
// branches of Decodable meet: at lo, hi and Prob(d) and one ulp either
// side. Both early exits and the in-band evaluation must each be taken and
// agree with the oracle, consuming exactly one draw.
func TestBracketScriptedDraws(t *testing.T) {
	m := prob.DefaultReceiptModel()
	s := NewShadowing(m)
	// rand.Float64 is float64(Int63()) / 2⁶³, and u·2⁶³ is an integer for
	// every float64 u in [2⁻¹⁰, 1): any such u can be scripted exactly.
	const scale = 1 << 63
	var below, above, inBand int
	for _, d := range []float64{40.5, 100, 180.25, 240, 249.9, 255, 320, 400.75, s.MaxRange()} {
		b, p := s.table[int(d/bucketWidth)], m.Prob(d)
		if b.lo == 0 {
			t.Fatalf("d=%v: bucket not decided from the table", d)
		}
		for _, x := range []float64{b.lo, p, b.hi} {
			for _, u := range []float64{math.Nextafter(x, 0), x, math.Nextafter(x, 1)} {
				v := int64(u * scale)
				if float64(v)/scale != u {
					t.Fatalf("d=%v: cannot script u=%v", d, u)
				}
				switch {
				case u < b.lo:
					below++
				case u >= b.hi:
					above++
				default:
					inBand++
				}
				a, o := &script{v: v}, &script{v: v}
				got := s.Decodable(d, rand.New(a))
				want := oracleDecodable(m, d, rand.New(o))
				if got != want || want != (u < p) {
					t.Fatalf("d=%v u=%v (lo %v, Prob %v, hi %v): Decodable %v, oracle %v", d, u, b.lo, p, b.hi, got, want)
				}
				if a.taken != 1 || o.taken != 1 {
					t.Fatalf("d=%v u=%v: Decodable took %d draws, oracle %d, want 1 each", d, u, a.taken, o.taken)
				}
			}
		}
	}
	if below == 0 || above == 0 || inBand == 0 {
		t.Fatalf("branches not all taken: %d below lo, %d at or above hi, %d in band", below, above, inBand)
	}
}

func TestDecodableAllocFree(t *testing.T) {
	s := NewShadowing(prob.DefaultReceiptModel())
	rng := rand.New(rand.NewSource(5))
	d := 0.0
	if n := testing.AllocsPerRun(2000, func() {
		d = math.Mod(d+7.3, s.MaxRange()+20)
		s.Decodable(d, rng)
	}); n != 0 {
		t.Fatalf("Decodable allocates %v per call, want 0", n)
	}
}

var benchDecoded int

// BenchmarkShadowingDecodable is the per-candidate cost of a shadowed
// transmit: distances pre-drawn over the whole range so neither the bucket
// nor the branch taken is predictable.
func BenchmarkShadowingDecodable(b *testing.B) {
	s := NewShadowing(prob.DefaultReceiptModel())
	rng := rand.New(rand.NewSource(1))
	dists := make([]float64, 4096)
	for i := range dists {
		dists[i] = rng.Float64() * s.MaxRange()
	}
	var m Model = s // the radio cache calls through the interface
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Decodable(dists[i%len(dists)], rng) {
			benchDecoded++
		}
	}
}
