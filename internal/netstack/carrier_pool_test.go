package netstack_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/busferry"
	"github.com/vanetlab/relroute/internal/routing/greedy"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// failCounter counts the send failures the stack reports to its router.
type failCounter struct {
	netstack.Router
	fails *int
}

func (f failCounter) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	*f.fails++
	f.Router.OnSendFailed(pkt, to)
}

// TestCarrierPacketsRecycled runs two routing.Carrier protocols on a
// static line — Greedy, which forwards at once, and the bus ferry, whose
// buses hold custody between sweeps — with every link cut for 0.37 s in
// every 0.74 s (out of step with the 1 s beacons), so that a unicast sent
// into a cut spends its whole ARQ budget and the send-failure path runs
// dozens of times. Every packet must come back to the stack's pool exactly
// once: the forwarded one when its frame is done, the rest at delivery or
// drop.
// A second wave of flows then finds the pool warm and allocates no packet:
// the free list holds the same packets after it as before.
func TestCarrierPacketsRecycled(t *testing.T) {
	const perWave = 10
	line := func(bus bool) []routetest.Vehicle {
		vs := routetest.Chain(8, 100, 0)
		for i := 1; i < len(vs)-1; i++ {
			vs[i].Bus = bus // the ends are cars: the ferry's source and destination
		}
		return vs
	}
	for _, tc := range []struct {
		name    string
		bus     bool
		factory netstack.RouterFactory
	}{
		{"Greedy", false, greedy.New()},
		{"Bus", true, busferry.New()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fails := 0
			w, ids := routetest.World(t, 1, line(tc.bus), func() netstack.Router {
				return failCounter{tc.factory(), &fails}
			})
			w.SetLinkFault(func(from, to int32) float64 {
				if int(w.Engine().Now()*2.7)%2 == 1 {
					return 1
				}
				return 0
			})
			n := len(ids)
			w.AddFlow(ids[0], ids[n-1], 2, 0.2, perWave, 256)
			w.AddFlow(ids[0], ids[n-1], 42, 0.2, perWave, 256)
			w.StartRun()
			if err := w.AdvanceTo(40); err != nil {
				t.Fatal(err)
			}
			c := w.Collector()
			t.Logf("first wave: %d delivered, %d dropped, %d send failures", c.DataDelivered, c.DataDropped, fails)
			if c.DataDelivered != perWave || fails == 0 {
				t.Fatalf("first wave: delivered %d of %d after %d send failures; want all, past failed sends",
					c.DataDelivered, perWave, fails)
			}
			netstack.CheckFreeList(t, w)
			warm := map[*netstack.Packet]bool{}
			for _, p := range netstack.FreeList(w) {
				warm[p] = true
			}
			if err := w.AdvanceTo(80); err != nil {
				t.Fatal(err)
			}
			if c.DataDelivered != 2*perWave {
				t.Fatalf("delivered %d of %d packets", c.DataDelivered, 2*perWave)
			}
			netstack.CheckFreeList(t, w)
			free := netstack.FreeList(w)
			for _, p := range free {
				if !warm[p] {
					t.Fatalf("the second wave allocated packet %p: the first left %d in the pool", p, len(warm))
				}
			}
			if len(free) != len(warm) {
				t.Fatalf("the pool held %d packets after the first wave and %d after the second", len(warm), len(free))
			}
		})
	}
}
