package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestPDRAndDelivery(t *testing.T) {
	c := NewCollector()
	if c.PDR() != 0 {
		t.Error("PDR on empty collector should be 0")
	}
	for i := 0; i < 10; i++ {
		c.OnDataSent()
	}
	if !c.OnDataDelivered(1, 0.5, 3) {
		t.Error("first delivery reported as duplicate")
	}
	if c.OnDataDelivered(1, 0.9, 5) {
		t.Error("second delivery of same UID reported as first")
	}
	c.OnDataDelivered(2, 1.5, 5)
	if got := c.PDR(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("PDR = %v", got)
	}
	if c.DataDuplicate != 1 {
		t.Fatalf("duplicates = %d", c.DataDuplicate)
	}
	if got := c.MeanDelay(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("mean delay = %v", got)
	}
	if got := c.MeanHops(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("mean hops = %v", got)
	}
	if got := c.DuplicateRatio(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("dup ratio = %v", got)
	}
}

func TestControlAccounting(t *testing.T) {
	c := NewCollector()
	c.OnControl(KindRREQ, 48)
	c.OnControl(KindRREQ, 48)
	c.OnControl(KindHello, 32)
	if c.Control[KindRREQ] != 2 || c.Control[KindHello] != 1 {
		t.Fatalf("control = %v", c.Control)
	}
	if c.ControlBytes != 128 {
		t.Fatalf("control bytes = %d", c.ControlBytes)
	}
	if c.ControlTotal() != 3 {
		t.Fatalf("control total = %d", c.ControlTotal())
	}
	// nothing delivered: overhead reported as raw control count
	if got := c.OverheadRatio(); got != 3 {
		t.Fatalf("overhead with zero deliveries = %v", got)
	}
	c.OnDataSent()
	c.OnDataDelivered(9, 0.1, 1)
	if got := c.OverheadRatio(); got != 3 {
		t.Fatalf("overhead = %v", got)
	}
}

// TestKindsInNameOrder pins the two facts that digests and printed counts
// rely on: kind names ascend in index order, and KindCounts prints exactly
// what fmt prints for the map of its non-zero counts by name.
func TestKindsInNameOrder(t *testing.T) {
	for k := KindData + 1; k < numKinds; k++ {
		if k.String() <= (k - 1).String() {
			t.Fatalf("kind %d is %q, after %q: not in name order", k, k, k-1)
		}
	}
	for _, counts := range []KindCounts{
		{},
		{KindHello: 120, KindRREQ: 3},
		{1, 2, 3, 4, 5, 6, 7},
		{KindUpdate: -1, KindData: 1 << 40},
	} {
		m := map[string]int{}
		for k, n := range counts {
			if n != 0 {
				m[Kind(k).String()] = n
			}
		}
		if got, want := fmt.Sprintf("%+v", counts), fmt.Sprintf("%+v", m); got != want {
			t.Errorf("KindCounts prints %s, the map %s", got, want)
		}
	}
}

// TestOnControlAllocFree: counting a kind allocates nothing, from the first
// call on.
func TestOnControlAllocFree(t *testing.T) {
	c := NewCollector()
	k := KindData
	if allocs := testing.AllocsPerRun(100, func() {
		k = k%(numKinds-1) + 1
		c.OnControl(k, 32)
	}); allocs != 0 {
		t.Fatalf("OnControl allocates %.1f per call", allocs)
	}
}

func TestPercentile(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 100; i++ {
		c.OnDataSent()
		c.OnDataDelivered(uint64(i), float64(i), 1)
	}
	if got := c.P95Delay(); got != 95 {
		t.Fatalf("p95 = %v", got)
	}
	empty := NewCollector()
	if empty.P95Delay() != 0 {
		t.Error("p95 of empty collector should be 0")
	}
}

func TestCollisionRate(t *testing.T) {
	c := NewCollector()
	if c.CollisionRate() != 0 {
		t.Error("collision rate on empty collector")
	}
	c.MACDelivered = 70
	c.MACCollisions = 20
	c.MACChannelLoss = 10
	if got := c.CollisionRate(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("collision rate = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	c := NewCollector()
	c.OnDataSent()
	c.OnDataDelivered(1, 0.25, 2)
	c.OnControl(KindRREQ, 48)
	c.OnPathLifetime(12)
	c.RouteDiscoveries = 3
	c.RouteBreaks = 2
	c.MACTransmits = 55
	s := c.Summarize("AODV", "test")
	if s.Protocol != "AODV" || s.Scenario != "test" {
		t.Fatal("labels lost")
	}
	if s.PDR != 1 || s.MeanDelay != 0.25 || s.PathLifetime != 12 {
		t.Fatalf("summary = %+v", s)
	}
	if s.MACTransmits != 55 || s.ControlTotal != 1 {
		t.Fatalf("summary MAC/control = %+v", s)
	}
	str := s.String()
	for _, want := range []string{"AODV", "PDR=1.00"} {
		if !strings.Contains(str, want) {
			t.Errorf("summary string %q missing %q", str, want)
		}
	}
}

func TestPathLifetimes(t *testing.T) {
	c := NewCollector()
	if c.MeanPathLifetime() != 0 {
		t.Error("empty mean path lifetime")
	}
	c.OnPathLifetime(10)
	c.OnPathLifetime(20)
	if got := c.MeanPathLifetime(); got != 15 {
		t.Fatalf("mean path lifetime = %v", got)
	}
}
