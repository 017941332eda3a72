package netstack_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/core"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/dsr"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// TestSourceRoutedPacketsRecycled runs the two source-routed protocol
// families on a line of co-moving vehicles whose links are cut for 0.37 s
// in every 1.48 s, as TestCarrierPacketsRecycled does: TBP-SS, whose probes
// split at every hop and whose origin queues the packet its first hop
// refused, and DSR, whose requests flood. Sends fail and routes break, are
// reported and are found again, and still every packet must come back to
// the stack's pool exactly once: data at delivery or drop, and requests,
// replies, probes and break notices where their journeys end. So once the
// first wave, two flows at once, has run out, every packet the stack handed
// a router is back in the pool, and once only; a second wave of one flow
// then allocates no packet: the free list holds the same packets after it.
func TestSourceRoutedPacketsRecycled(t *testing.T) {
	const perWave = 10
	for _, tc := range []struct {
		name    string
		factory netstack.RouterFactory
	}{
		{"TBP-SS", core.NewTicketRouter()},
		{"DSR", dsr.New()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fails, handed := 0, map[*netstack.Packet]bool{}
			w, ids := routetest.World(t, 1, routetest.Chain(8, 100, 20), func() netstack.Router {
				return handedOut{failCounter{tc.factory(), &fails}, handed}
			})
			w.SetLinkFault(func(from, to int32) float64 {
				if int(w.Engine().Now()*2.7)%4 == 1 {
					return 1
				}
				return 0
			})
			n := len(ids)
			w.AddFlow(ids[0], ids[n-1], 2, 0.2, perWave, 256)
			w.AddFlow(ids[0], ids[n-1], 2.1, 0.2, perWave, 256)
			w.AddFlow(ids[0], ids[n-1], 42, 0.2, perWave, 256)
			w.StartRun()
			if err := w.AdvanceTo(40); err != nil {
				t.Fatal(err)
			}
			c := w.Collector()
			t.Logf("first wave: %d delivered, %d dropped, %d send failures, %d route breaks",
				c.DataDelivered, c.DataDropped, fails, c.RouteBreaks)
			if c.DataDelivered == 0 || fails == 0 || c.RouteBreaks == 0 {
				t.Fatal("the first wave must deliver past failed sends and broken routes")
			}
			netstack.CheckFreeList(t, w)
			warm := map[*netstack.Packet]bool{}
			for _, p := range netstack.FreeList(w) {
				warm[p] = true
			}
			for p := range handed {
				if !warm[p] {
					t.Fatalf("packet %p, handed to a router, is not back in the pool", p)
				}
			}
			if err := w.AdvanceTo(80); err != nil {
				t.Fatal(err)
			}
			if c.DataDelivered+c.DataDropped != 3*perWave {
				t.Fatalf("%d delivered and %d dropped of %d packets", c.DataDelivered, c.DataDropped, 3*perWave)
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

// handedOut records every packet the stack hands its router.
type handedOut struct {
	netstack.Router
	handed map[*netstack.Packet]bool
}

func (h handedOut) HandlePacket(pkt *netstack.Packet) {
	h.handed[pkt] = true
	h.Router.HandlePacket(pkt)
}

func (h handedOut) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	h.handed[pkt] = true
	h.Router.OnSendFailed(pkt, to)
}
