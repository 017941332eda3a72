package prob

import (
	"math"
	"math/rand"
	"testing"
)

func TestPairProb(t *testing.T) {
	s := SegmentConnectivity{Length: 1000, Density: 0.02, Range: 250}
	// P(gap ≤ 250) with λ=0.02: 1 - e^-5 ≈ 0.9933
	if got := s.PairProb(); math.Abs(got-(1-math.Exp(-5))) > 1e-12 {
		t.Fatalf("PairProb = %v", got)
	}
	if got := (SegmentConnectivity{Density: 0, Range: 250}).PairProb(); got != 0 {
		t.Fatalf("zero-density PairProb = %v", got)
	}
}

func TestProbEdgeCases(t *testing.T) {
	// segment shorter than the range is bridged directly
	short := SegmentConnectivity{Length: 200, Density: 0, Range: 250}
	if got := short.Prob(); got != 1 {
		t.Fatalf("short segment Prob = %v, want 1", got)
	}
	// long empty segment cannot be connected
	empty := SegmentConnectivity{Length: 2000, Density: 0.0001, Range: 250}
	if got := empty.Prob(); got != 0 {
		t.Fatalf("near-empty Prob = %v, want 0", got)
	}
}

func TestProbIncreasesWithDensity(t *testing.T) {
	prev := -1.0
	for _, lam := range []float64{0.004, 0.008, 0.016, 0.032, 0.064} {
		s := SegmentConnectivity{Length: 2000, Density: lam, Range: 250}
		p := s.Prob()
		if p < prev-1e-12 {
			t.Fatalf("Prob not increasing with density at λ=%v: %v < %v", lam, p, prev)
		}
		prev = p
	}
	if prev < 0.9 {
		t.Fatalf("dense segment Prob = %v, want ≈1", prev)
	}
}

func TestAnalyticNearMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, lam := range []float64{0.01, 0.02, 0.04} {
		s := SegmentConnectivity{Length: 1500, Density: lam, Range: 250}
		analytic := s.Prob()
		mc := s.MonteCarlo(4000, rng)
		// the analytic form is an approximation; require agreement within
		// 0.12 absolute, enough to rank road segments consistently
		if math.Abs(analytic-mc) > 0.12 {
			t.Errorf("λ=%v: analytic %v vs Monte Carlo %v", lam, analytic, mc)
		}
	}
}

func TestMonteCarloEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := SegmentConnectivity{Length: 100, Density: 0.01, Range: 250}
	if got := s.MonteCarlo(100, rng); got != 1 {
		t.Fatalf("short-segment MC = %v, want 1", got)
	}
	if got := s.MonteCarlo(0, rng); got != 0 {
		t.Fatalf("zero-trials MC = %v", got)
	}
}

func TestConnectedChain(t *testing.T) {
	if !connectedChain([]float64{100, 200, 300}, 400, 150) {
		t.Error("chain with ≤150 m gaps reported disconnected")
	}
	if connectedChain([]float64{100, 300}, 400, 150) {
		t.Error("chain with 200 m gap reported connected")
	}
	if !connectedChain(nil, 100, 150) {
		t.Error("empty chain over short span reported disconnected")
	}
	if connectedChain(nil, 200, 150) {
		t.Error("empty chain over long span reported connected")
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, mean := range []float64{0.5, 4, 30, 100} {
		sum := 0
		const n = 50000
		for i := 0; i < n; i++ {
			sum += poisson(mean, rng)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.05*math.Max(mean, 1) {
			t.Errorf("poisson(%v) sample mean = %v", mean, got)
		}
	}
	if got := poisson(0, rng); got != 0 {
		t.Errorf("poisson(0) = %d", got)
	}
}

// MonteCarlo estimates the connectivity probability empirically by placing
// Poisson(λL) vehicles uniformly on the segment and checking every gap
// (including the distances from the segment ends to the first and last
// vehicle, which a relaying endpoint must bridge): the reference the analytic
// approximation Prob is checked against.
func (s SegmentConnectivity) MonteCarlo(trials int, rng *rand.Rand) float64 {
	if trials <= 0 {
		return 0
	}
	if s.Length <= s.Range {
		return 1
	}
	mean := s.Density * s.Length
	ok := 0
	pos := make([]float64, 0, int(mean)+8)
	for t := 0; t < trials; t++ {
		n := poisson(mean, rng)
		pos = pos[:0]
		for i := 0; i < n; i++ {
			pos = append(pos, rng.Float64()*s.Length)
		}
		sortInPlace(pos)
		if connectedChain(pos, s.Length, s.Range) {
			ok++
		}
	}
	return float64(ok) / float64(trials)
}

// connectedChain reports whether a chain of relays at sorted positions
// bridges [0, L] with hops of at most r (treating 0 and L as the
// communicating endpoints).
func connectedChain(sorted []float64, length, r float64) bool {
	prev := 0.0
	for _, p := range sorted {
		if p-prev > r {
			return false
		}
		prev = p
	}
	return length-prev <= r
}

// poisson draws a Poisson variate with the given mean (Knuth for small
// means, normal approximation above 60).
func poisson(mean float64, rng *rand.Rand) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func sortInPlace(s []float64) {
	// insertion sort keeps this allocation-free; segments hold tens of
	// vehicles at most.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
