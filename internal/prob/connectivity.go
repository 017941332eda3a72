package prob

import "math"

// SegmentConnectivity models the probability that a road segment is
// multi-hop connected, the routing metric of the CAR protocol (Sec. VII-B):
// "the probability of the connection between two vehicles is the
// probability that their distance is within a certain value (transmission
// range)"; a route over road segments with the highest connectivity product
// wins.
type SegmentConnectivity struct {
	// Length of the road segment in meters.
	Length float64
	// Density is the vehicle density in vehicles per meter.
	Density float64
	// Range is the communication range in meters.
	Range float64
}

// PairProb returns the probability that two consecutive vehicles are within
// communication range, assuming exponential (free-flow Poisson) headways
// with the configured density: P(gap ≤ r) = 1 − exp(−λ·r).
func (s SegmentConnectivity) PairProb() float64 {
	if s.Density <= 0 {
		return 0
	}
	return 1 - math.Exp(-s.Density*s.Range)
}

// Prob returns the probability that the whole segment is connected, i.e.
// that every consecutive gap among the expected vehicles on the segment is
// within range. With n ≈ λ·L vehicles there are about n−1 independent
// exponential gaps, giving P ≈ (1 − e^{−λr})^{n−1}. Empty or single-vehicle
// segments count as connected only when they are shorter than the range
// (the endpoints can bridge them directly).
func (s SegmentConnectivity) Prob() float64 {
	if s.Length <= s.Range {
		return 1
	}
	n := s.Density * s.Length
	if n < 2 {
		return 0
	}
	gaps := n - 1
	return math.Pow(s.PairProb(), gaps)
}
