package dsr_test

import (
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/dsr"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

func TestSourceRoutingDelivers(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(5, 150, 20), dsr.New())
	routetest.MustDeliverAll(t, w, ids[0], ids[4], 5)
	c := w.Collector()
	if c.Control[netstack.KindRREQ] == 0 || c.Control[netstack.KindRREP] == 0 {
		t.Fatalf("control = %v", c.Control)
	}
}

func TestRouteCacheServesRepeatFlows(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(4, 150, 20), dsr.New())
	w.AddFlow(ids[0], ids[3], 1, 0.2, 10, 256)
	if err := w.Run(8); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataDelivered != 10 {
		t.Fatalf("delivered = %d", c.DataDelivered)
	}
	if c.RouteDiscoveries > 2 {
		t.Fatalf("discoveries = %d, want cache reuse", c.RouteDiscoveries)
	}
}

func TestCachePopulatedAtIntermediates(t *testing.T) {
	var routers []*dsr.Router
	factory := dsr.New()
	wrapped := func() netstack.Router {
		r := factory().(*dsr.Router)
		routers = append(routers, r)
		return r
	}
	w, ids := routetest.World(t, 1, routetest.Chain(4, 150, 20), wrapped)
	w.AddFlow(ids[0], ids[3], 1, 1, 2, 256)
	if err := w.Run(6); err != nil {
		t.Fatal(err)
	}
	if path, ok := routers[1].Route(ids[3]); !ok || !slices.Equal(path, ids[1:]) {
		t.Fatalf("relay's route to the target = %v, %v after forwarding an RREP; want %v", path, ok, ids[1:])
	}
}

func TestBrokenSourceRouteReported(t *testing.T) {
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0)},
		{Pos: geom.V(200, 0)},
		{Pos: geom.V(400, 0), Vel: geom.V(40, 0)}, // drives away
	}
	w, ids := routetest.World(t, 1, vehicles, dsr.New())
	w.AddFlow(ids[0], ids[2], 1, 1, 10, 256)
	if err := w.Run(14); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataDelivered == 0 {
		t.Fatal("nothing delivered before the break")
	}
	if c.RouteBreaks == 0 && c.Control[netstack.KindRERR] == 0 {
		t.Fatal("break neither counted nor reported")
	}
}

func TestLoopSuppression(t *testing.T) {
	// a dense clique: RREQs must not loop (Path containment check)
	vehicles := routetest.Chain(6, 60, 10) // everyone hears everyone
	w, ids := routetest.World(t, 1, vehicles, dsr.New())
	w.AddFlow(ids[0], ids[5], 1, 1, 3, 256)
	if err := w.Run(8); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataDelivered != 3 {
		t.Fatalf("delivered = %d", c.DataDelivered)
	}
	// each RREQ flood in a 6-clique is ≤ 6 transmissions if loops are
	// suppressed (everyone forwards once)
	if c.Control[netstack.KindRREQ] > 12 {
		t.Fatalf("RREQ transmissions = %d; loop suppression failed", c.Control[netstack.KindRREQ])
	}
}
