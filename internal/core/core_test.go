package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/link"
)

func TestLinkStabilityOrdering(t *testing.T) {
	// a co-moving neighbor must score higher than a fast-crossing one,
	// under every metric
	for _, m := range []Metric{MetricExpectedDuration, MetricMeanDuration, MetricDeterministic} {
		t.Run(m.String(), func(t *testing.T) {
			stable := LinkStability(m, StabilityParams{},
				geom.V(0, 0), geom.V(30, 0),
				geom.V(100, 0), geom.V(29, 0), 250)
			fleeting := LinkStability(m, StabilityParams{},
				geom.V(0, 0), geom.V(30, 0),
				geom.V(100, 0), geom.V(-30, 0), 250)
			if stable <= fleeting {
				t.Fatalf("stable link %v not above fleeting %v", stable, fleeting)
			}
		})
	}
}

func TestLinkStabilityOutOfRange(t *testing.T) {
	for _, m := range []Metric{MetricExpectedDuration, MetricMeanDuration} {
		got := LinkStability(m, StabilityParams{},
			geom.V(0, 0), geom.V(30, 0), geom.V(400, 0), geom.V(30, 0), 250)
		if got != 0 {
			t.Fatalf("%v: stability of a down link = %v", m, got)
		}
	}
}

func TestLinkStabilityAllocFree(t *testing.T) {
	for _, m := range []Metric{MetricExpectedDuration, MetricMeanDuration, MetricDeterministic} {
		var sink float64
		allocs := testing.AllocsPerRun(50, func() {
			sink += LinkStability(m, StabilityParams{},
				geom.V(0, 0), geom.V(30, 0), geom.V(120, 3), geom.V(25, 0), 250)
		})
		if allocs != 0 || sink <= 0 {
			t.Errorf("%v: %v allocations per call (sum %v), want 0", m, allocs, sink)
		}
	}
}

func TestDeterministicMetricMatchesSolver(t *testing.T) {
	params := StabilityParams{Horizon: 1e6}
	aPos, aVel := geom.V(0, 0), geom.V(33, 0)
	bPos, bVel := geom.V(150, 0), geom.V(25, 0)
	want := link.LifetimeVec(aPos, aVel, bPos, bVel, 250)
	got := LinkStability(MetricDeterministic, params, aPos, aVel, bPos, bVel, 250)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("deterministic stability = %v, solver = %v", got, want)
	}
	// Forever clamps to the horizon
	params = StabilityParams{Horizon: 60}
	got = LinkStability(MetricDeterministic, params,
		geom.V(0, 0), geom.V(30, 0), geom.V(10, 0), geom.V(30, 0), 250)
	if got != 60 {
		t.Fatalf("clamped stability = %v", got)
	}
}

func TestMeanMetricWiderUncertainty(t *testing.T) {
	// with a long-lived link, the wider drift model (TBP-SS) must be more
	// pessimistic than the narrow estimation-error model (TBP)
	aPos, aVel := geom.V(0, 0), geom.V(30, 0)
	bPos, bVel := geom.V(50, 0), geom.V(30, 0)
	tbp := LinkStability(MetricExpectedDuration, StabilityParams{}, aPos, aVel, bPos, bVel, 250)
	tbpss := LinkStability(MetricMeanDuration, StabilityParams{}, aPos, aVel, bPos, bVel, 250)
	if tbpss >= tbp {
		t.Fatalf("mean-duration %v not more conservative than expected-duration %v", tbpss, tbp)
	}
}

func TestSplitTickets(t *testing.T) {
	tests := []struct {
		l, n int
		want []int
	}{
		{3, 2, []int{2, 1}},
		{3, 3, []int{1, 1, 1}},
		{1, 3, []int{1, 0, 0}},
		{5, 2, []int{3, 2}},
		{0, 2, []int{0, 0}},
		{8, 3, []int{3, 3, 2}},
	}
	for _, tc := range tests {
		got := splitTickets(tc.l, tc.n)
		if len(got) != len(tc.want) {
			t.Fatalf("splitTickets(%d,%d) = %v", tc.l, tc.n, got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("splitTickets(%d,%d) = %v, want %v", tc.l, tc.n, got, tc.want)
			}
		}
	}
	if got := splitTickets(3, 0); got != nil {
		t.Fatalf("splitTickets with no candidates = %v", got)
	}
}

func TestSplitTicketsProperties(t *testing.T) {
	f := func(l8, n8 uint8) bool {
		l, n := int(l8%32), int(n8%16)
		out := splitTickets(l, n)
		if n == 0 {
			return out == nil
		}
		sum := 0
		prev := 1 << 30
		for _, v := range out {
			if v < 0 || v > prev {
				return false // must be non-increasing, the best candidate first
			}
			prev = v
			sum += v
		}
		return sum == min(l, sum) && sum <= l && (l == 0 || sum == l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestMetricString(t *testing.T) {
	if MetricExpectedDuration.String() != "expected-duration" ||
		MetricMeanDuration.String() != "mean-duration" ||
		MetricDeterministic.String() != "deterministic" {
		t.Fatal("metric names wrong")
	}
}
