package flood_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/flood"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

func TestFloodingDeliversAcrossChain(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(6, 150, 20), flood.New())
	routetest.MustDeliverAll(t, w, ids[0], ids[5], 5)
}

func TestFloodingDedupBoundsTransmissions(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(5, 100, 20), flood.New())
	w.AddFlow(ids[0], ids[4], 1, 10, 1, 256)
	if err := w.Run(5); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	// one packet: the origin transmits once and at most every other node
	// rebroadcasts once (dst does not) — so ≤ 5 transmissions, not an
	// endless echo
	if c.MACTransmits > 5 {
		t.Fatalf("transmissions = %d; duplicate suppression failed", c.MACTransmits)
	}
	if c.DataDelivered != 1 {
		t.Fatalf("delivered = %d", c.DataDelivered)
	}
}

func TestFloodingDoesNotUseBeacons(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(3, 100, 20), flood.New())
	w.AddFlow(ids[0], ids[2], 1, 1, 1, 256)
	if err := w.Run(5); err != nil {
		t.Fatal(err)
	}
	if got := w.Collector().Control[netstack.KindHello]; got != 0 {
		t.Fatalf("flooding charged %d beacons", got)
	}
}

func TestFloodingTTLLimitsReach(t *testing.T) {
	// chain longer than the TTL budget: far node must NOT receive when
	// TTL runs out first. DefaultTTL is 32, chain of 36 hops needs gaps
	// forcing single-hop progress.
	vehicles := routetest.Chain(36, 240, 0)
	w, ids := routetest.World(t, 1, vehicles, flood.New())
	delivered := routetest.RunFlow(t, w, ids[0], ids[35], 1, 1, 30, 1)
	if delivered != 0 {
		t.Fatalf("delivered across %d hops with TTL 32", 35)
	}
}

func TestBiswasDeliversAndAcks(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(5, 150, 20), flood.NewBiswas())
	routetest.MustDeliverAll(t, w, ids[0], ids[4], 3)
}

func TestBiswasRetransmitsWithoutAck(t *testing.T) {
	// an isolated pair: the destination receives and does NOT rebroadcast
	// (unicast semantics), so the source hears no implicit ack and
	// retransmits up to its budget
	w, ids := routetest.World(t, 1, routetest.Chain(2, 100, 0), flood.NewBiswas())
	w.AddFlow(ids[0], ids[1], 1, 10, 1, 256)
	if err := w.Run(10); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	// 1 original + 3 retries
	if c.MACTransmits != 4 {
		t.Fatalf("transmissions = %d, want 1+3 retries", c.MACTransmits)
	}
	if c.DataDelivered != 1 {
		t.Fatalf("delivered = %d", c.DataDelivered)
	}
}

func TestBiswasAckSuppressesRetransmit(t *testing.T) {
	// three in a row: the middle relay's rebroadcast is the implicit ack
	// for the source, so the source must not retransmit
	w, ids := routetest.World(t, 1, routetest.Chain(3, 150, 0), flood.NewBiswas())
	w.AddFlow(ids[0], ids[2], 1, 10, 1, 256)
	if err := w.Run(10); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	// source tx + relay tx; destination keeps quiet; and since the
	// relay's ack also reaches the source, no retries anywhere — but the
	// RELAY itself hears no copy from ahead and retries up to 3 times.
	if c.MACTransmits > 5 {
		t.Fatalf("transmissions = %d", c.MACTransmits)
	}
	if c.DataDelivered != 1 {
		t.Fatalf("delivered = %d", c.DataDelivered)
	}
}

func TestFloodingBroadcastStormSignature(t *testing.T) {
	// duplicate ratio and collisions must grow with density: run 10 and
	// 40 vehicles in the same area
	run := func(n int) (collRate float64) {
		vehicles := make([]routetest.Vehicle, n)
		for i := range vehicles {
			vehicles[i] = routetest.Vehicle{
				Pos: geom.V(float64(i%10)*40, float64(i/10)*40),
				Vel: geom.V(10, 0),
			}
		}
		w, ids := routetest.World(t, 1, vehicles, flood.New())
		w.AddFlow(ids[0], ids[n-1], 1, 0.2, 20, 512)
		if err := w.Run(10); err != nil {
			t.Fatal(err)
		}
		return w.Collector().CollisionRate()
	}
	sparse := run(10)
	dense := run(40)
	if dense <= sparse {
		t.Fatalf("collision rate did not grow with density: %v → %v", sparse, dense)
	}
}
