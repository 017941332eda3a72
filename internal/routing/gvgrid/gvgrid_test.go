package gvgrid_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/routing/gvgrid"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

func TestDeliversAcrossChain(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(5, 150, 20), gvgrid.New())
	routetest.MustDeliverAll(t, w, ids[0], ids[4], 5)
}

func TestPrefersReliableNeighborInNextCell(t *testing.T) {
	// two relays in the same forward cell: one co-moving (reliable link),
	// one on the opposite carriageway (link dies within the delay bound);
	// deliveries should flow and keep flowing through the reliable relay
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0), Vel: geom.V(20, 0)},
		{Pos: geom.V(160, 8), Vel: geom.V(20, 0)},   // reliable
		{Pos: geom.V(165, -8), Vel: geom.V(-28, 0)}, // fleeting
		{Pos: geom.V(340, 0), Vel: geom.V(20, 0)},
	}
	w, ids := routetest.World(t, 1, vehicles, gvgrid.New())
	w.AddFlow(ids[0], ids[3], 2, 0.5, 10, 256)
	if err := w.Run(9); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.PDR() < 0.9 {
		t.Fatalf("PDR = %v", c.PDR())
	}
}

func TestCellWalkRequiresProgress(t *testing.T) {
	// destination unreachable: no neighbor in a closer cell → carry, then
	// drop; never bounce between same-distance cells
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0)},
		{Pos: geom.V(30, 40)}, // same cell as source
		{Pos: geom.V(5000, 0)},
	}
	w, ids := routetest.World(t, 1, vehicles, gvgrid.New())
	w.AddFlow(ids[0], ids[2], 1, 1, 2, 256)
	if err := w.Run(15); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataDelivered != 0 {
		t.Fatal("delivered the unreachable")
	}
	if c.DataForwarded > 2 {
		t.Fatalf("forwards = %d; packet bounced without cell progress", c.DataForwarded)
	}
	if c.DataDropped != 2 {
		t.Fatalf("dropped = %d", c.DataDropped)
	}
}
