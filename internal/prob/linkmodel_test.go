package prob

import (
	"math"
	"math/rand"
	"testing"
)

func TestDurationClosedForm(t *testing.T) {
	m := LinkDurationModel{Gap: 100, Range: 250, Horizon: 1000}
	// sender ahead (gap +100) pulling away at 5: (250-100)/5 = 30
	if got := m.Duration(5); math.Abs(got-30) > 1e-12 {
		t.Errorf("Duration(5) = %v, want 30", got)
	}
	// falling behind at 5: (250+100)/5 = 70
	if got := m.Duration(-5); math.Abs(got-70) > 1e-12 {
		t.Errorf("Duration(-5) = %v, want 70", got)
	}
	// zero relative speed: horizon
	if got := m.Duration(0); got != 1000 {
		t.Errorf("Duration(0) = %v, want horizon", got)
	}
	// already out of range
	broken := LinkDurationModel{Gap: 300, Range: 250}
	if got := broken.Duration(1); got != 0 {
		t.Errorf("broken Duration = %v, want 0", got)
	}
}

func TestExpectedDecreasesWithRelSpeed(t *testing.T) {
	prev := math.Inf(1)
	for _, mu := range []float64{0.5, 2, 5, 10, 20} {
		m := LinkDurationModel{
			RelSpeed: Normal{Mu: mu, Sigma: 1},
			Gap:      50, Range: 250, Horizon: 600,
		}
		e := m.Expected()
		if e >= prev {
			t.Fatalf("Expected not decreasing: mu=%v gives %v, previous %v", mu, e, prev)
		}
		prev = e
	}
}

func TestExpectedMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := LinkDurationModel{
		RelSpeed: Normal{Mu: 4, Sigma: 3},
		Gap:      -80, Range: 250, Horizon: 300,
	}
	analytic := m.Expected()
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += m.Duration(m.RelSpeed.Mu + m.RelSpeed.Sigma*rng.NormFloat64())
	}
	mc := sum / n
	if math.Abs(analytic-mc) > 0.03*mc {
		t.Fatalf("Expected = %v, Monte Carlo = %v", analytic, mc)
	}
}

func TestSurvivalProbMonotone(t *testing.T) {
	m := LinkDurationModel{
		RelSpeed: Normal{Mu: 5, Sigma: 4},
		Gap:      0, Range: 250, Horizon: 600,
	}
	prev := 1.1
	for _, tt := range []float64{0, 1, 5, 20, 60, 200} {
		p := m.SurvivalProb(tt)
		if p < 0 || p > 1 {
			t.Fatalf("SurvivalProb(%v) = %v out of [0,1]", tt, p)
		}
		if p > prev+1e-9 {
			t.Fatalf("SurvivalProb not monotone at %v: %v > %v", tt, p, prev)
		}
		prev = p
	}
	if got := m.SurvivalProb(0); got != 1 {
		t.Fatalf("SurvivalProb(0) = %v for an up link", got)
	}
	broken := LinkDurationModel{RelSpeed: Normal{Mu: 0, Sigma: 1}, Gap: 400, Range: 250}
	if got := broken.SurvivalProb(0); got != 0 {
		t.Fatalf("SurvivalProb(0) = %v for a down link", got)
	}
}

func TestDefaultHorizon(t *testing.T) {
	m := LinkDurationModel{RelSpeed: Normal{Mu: 0, Sigma: 0.001}, Gap: 0, Range: 250}
	// with essentially zero relative speed the expectation approaches the
	// default 3600 s horizon
	if got := m.Expected(); got < 3000 {
		t.Fatalf("Expected = %v, want near default horizon", got)
	}
}
