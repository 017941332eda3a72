package rear_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/channel"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/prob"
	"github.com/vanetlab/relroute/internal/routing/rear"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

func TestDeliversAcrossChain(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(5, 150, 20), rear.New())
	routetest.MustDeliverAll(t, w, ids[0], ids[4], 5)
}

func TestPrefersStrongLinkOverLongStride(t *testing.T) {
	// Under a shadowing channel, REAR should prefer the nearer (stronger)
	// relay over the farthest-progress one and still deliver well.
	tracks := make([]mobility.Track, 0)
	layout := []geom.Vec2{
		{X: 0, Y: 0}, {X: 110, Y: 0}, {X: 215, Y: 0}, {X: 330, Y: 0}, {X: 440, Y: 0},
	}
	for i, p := range layout {
		tracks = append(tracks, mobility.Track{
			ID: mobility.VehicleID(i),
			Waypoints: []mobility.Waypoint{
				{T: 0, Pos: p, Speed: 0},
				{T: 1000, Pos: p, Speed: 0},
			},
		})
	}
	ch := channel.NewShadowing(prob.DefaultReceiptModel())
	w := netstack.NewWorld(netstack.Config{Seed: 3, Channel: ch}, mobility.NewPlayback(tracks))
	ids := w.AddVehicleNodes(rear.New())
	w.AddFlow(ids[0], ids[4], 3, 0.5, 20, 256)
	if err := w.Run(20); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.PDR() < 0.8 {
		t.Fatalf("PDR = %v under shadowing", c.PDR())
	}
	// receipt-probability forwarding takes short strides: ≥ 2 hops mean
	if c.MeanHops() < 2 {
		t.Fatalf("mean hops = %v; REAR should avoid edge-of-range strides", c.MeanHops())
	}
}
