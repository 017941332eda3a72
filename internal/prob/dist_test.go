package prob

import (
	"math"
	"testing"
)

func TestNormalCDF(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	tests := []struct {
		x, want float64
	}{
		{0, 0.5},
		{1.959964, 0.975},
		{-1.959964, 0.025},
		{3, 0.99865},
	}
	for _, tc := range tests {
		if got := n.CDF(tc.x); math.Abs(got-tc.want) > 1e-4 {
			t.Errorf("CDF(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestNormalPDFIntegratesToOne(t *testing.T) {
	n := Normal{Mu: 2, Sigma: 3}
	sum := 0.0
	const dx = 0.01
	for x := -20.0; x < 25; x += dx {
		sum += n.PDF(x) * dx
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("PDF integral = %v", sum)
	}
}

func TestNormalDegenerateSigma(t *testing.T) {
	n := Normal{Mu: 3, Sigma: 0}
	if n.CDF(2.9) != 0 || n.CDF(3.1) != 1 {
		t.Error("degenerate normal CDF should be a step at mu")
	}
	if n.PDF(3) != 0 {
		t.Error("degenerate normal PDF defined as 0")
	}
}

func TestCDFMonotoneAndBounded(t *testing.T) {
	for _, d := range []Normal{{Mu: 0, Sigma: 3}, {Mu: 20, Sigma: 0.5}, {Mu: 5, Sigma: 0}} {
		prev := -1.0
		for x := -10.0; x <= 50; x += 0.25 {
			c := d.CDF(x)
			if c < 0 || c > 1 {
				t.Fatalf("%T CDF(%v) = %v out of [0,1]", d, x, c)
			}
			if c < prev-1e-12 {
				t.Fatalf("%T CDF not monotone at %v: %v < %v", d, x, c, prev)
			}
			prev = c
		}
	}
}
