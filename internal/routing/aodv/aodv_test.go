package aodv_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/aodv"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

func TestDiscoveryAndDelivery(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(5, 150, 20), aodv.New())
	routetest.MustDeliverAll(t, w, ids[0], ids[4], 5)
	c := w.Collector()
	if c.Control["RREQ"] == 0 || c.Control["RREP"] == 0 {
		t.Fatalf("control plane silent: %v", c.Control)
	}
	if c.RouteDiscoveries == 0 {
		t.Fatal("no discoveries counted")
	}
}

func TestRouteReuseAvoidsRediscovery(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(4, 150, 20), aodv.New())
	w.AddFlow(ids[0], ids[3], 1, 0.2, 10, 256)
	if err := w.Run(6); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataDelivered != 10 {
		t.Fatalf("delivered = %d", c.DataDelivered)
	}
	// one discovery serves the whole burst (stable topology)
	if c.RouteDiscoveries > 2 {
		t.Fatalf("discoveries = %d, want route reuse", c.RouteDiscoveries)
	}
}

func TestUnreachableDestinationDropsData(t *testing.T) {
	vehicles := append(routetest.Chain(3, 150, 20),
		routetest.Vehicle{Pos: geom.V(1e5, 0), Vel: geom.V(20, 0)}) // marooned
	w, ids := routetest.World(t, 1, vehicles, aodv.New())
	w.AddFlow(ids[0], ids[3], 1, 0.5, 4, 256)
	if err := w.Run(15); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataDelivered != 0 {
		t.Fatal("delivered to unreachable destination")
	}
	if c.DataDropped != 4 {
		t.Fatalf("dropped = %d, want all 4 after discovery failure", c.DataDropped)
	}
}

func TestHandlesLinkBreakWithRERR(t *testing.T) {
	// a 3-hop chain whose middle relay drives away mid-flow
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0), Vel: geom.V(0, 0)},
		{Pos: geom.V(200, 0), Vel: geom.V(0, 0)},
		{Pos: geom.V(400, 0), Vel: geom.V(35, 0)}, // destination drives off
	}
	w, ids := routetest.World(t, 1, vehicles, aodv.New())
	w.AddFlow(ids[0], ids[2], 1, 1, 12, 256)
	if err := w.Run(15); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataDelivered == 0 {
		t.Fatal("nothing delivered before the break")
	}
	if c.DataDelivered == 12 {
		t.Fatal("no break happened; test topology wrong")
	}
	if c.RouteBreaks == 0 {
		t.Fatal("break never detected")
	}
}

func TestIntermediateNodeTablesPopulated(t *testing.T) {
	var routers []*aodv.Router
	factory := aodv.New()
	wrapped := func() netstack.Router {
		r := factory().(*aodv.Router)
		routers = append(routers, r)
		return r
	}
	w, ids := routetest.World(t, 1, routetest.Chain(4, 150, 20), wrapped)
	w.AddFlow(ids[0], ids[3], 1, 1, 2, 256)
	if err := w.Run(6); err != nil {
		t.Fatal(err)
	}
	// middle node 1 must hold forward and reverse routes
	mid := routers[1]
	if _, ok := mid.Table().Lookup(ids[0], w.Engine().Now()); !ok {
		t.Fatal("no reverse route at relay")
	}
	if _, ok := mid.Table().Lookup(ids[3], w.Engine().Now()); !ok {
		t.Fatal("no forward route at relay")
	}
}
