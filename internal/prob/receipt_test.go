package prob

import (
	"math"
	"testing"
)

func TestReceiptProbMonotoneInDistance(t *testing.T) {
	m := DefaultReceiptModel()
	prev := 1.1
	for d := 1.0; d <= 2000; d *= 1.4 {
		p := m.Prob(d)
		if p < 0 || p > 1 {
			t.Fatalf("Prob(%v) = %v out of [0,1]", d, p)
		}
		if p > prev+1e-12 {
			t.Fatalf("Prob not decreasing at %v: %v > %v", d, p, prev)
		}
		prev = p
	}
	if got := m.Prob(0); got != 1 {
		t.Fatalf("Prob(0) = %v, want 1", got)
	}
}

func TestMedianRange(t *testing.T) {
	m := DefaultReceiptModel()
	r := m.MedianRange()
	if r < 100 || r > 600 {
		t.Fatalf("median range = %v m, outside plausible DSRC band", r)
	}
	if got := m.Prob(r); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("Prob(MedianRange) = %v, want 0.5", got)
	}
}

func TestProbFromRSSI(t *testing.T) {
	m := DefaultReceiptModel()
	// far above threshold: near-certain receipt
	if got := m.ProbFromRSSI(m.RxThreshDBm + 20); got < 0.99 {
		t.Errorf("strong RSSI receipt = %v", got)
	}
	// at threshold: 50%
	if got := m.ProbFromRSSI(m.RxThreshDBm); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("threshold RSSI receipt = %v, want 0.5", got)
	}
	// far below: near zero
	if got := m.ProbFromRSSI(m.RxThreshDBm - 20); got > 0.01 {
		t.Errorf("weak RSSI receipt = %v", got)
	}
}

func TestProbDeterministicWithoutShadowing(t *testing.T) {
	m := DefaultReceiptModel()
	m.ShadowSigmaDB = 0
	// step function at the threshold distance
	var edge float64
	for d := 1.0; d < 5000; d += 1 {
		if m.Prob(d) == 0 {
			edge = d
			break
		}
	}
	if edge == 0 {
		t.Fatal("no cutoff distance found")
	}
	if m.Prob(edge-2) != 1 {
		t.Fatalf("Prob just inside cutoff = %v, want 1", m.Prob(edge-2))
	}
}

func TestMeanRxPowerLogDistance(t *testing.T) {
	m := DefaultReceiptModel()
	// doubling the distance costs 10·n·log10(2) ≈ 3n dB
	drop := m.MeanRxPower(100) - m.MeanRxPower(200)
	want := 10 * m.PathLossExp * math.Log10(2)
	if math.Abs(drop-want) > 1e-9 {
		t.Fatalf("power drop per octave = %v, want %v", drop, want)
	}
	// below the reference distance the curve is flat
	if m.MeanRxPower(0.1) != m.MeanRxPower(m.RefDist) {
		t.Error("power not clamped at reference distance")
	}
}
