package dsdv_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/dsdv"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

func TestConvergesAndDelivers(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(4, 150, 20), dsdv.New())
	// start the flow after a few update rounds so tables converge
	w.AddFlow(ids[0], ids[3], 8, 0.5, 5, 256)
	if err := w.Run(15); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataDelivered != 5 {
		t.Fatalf("delivered = %d of 5 (drops=%d)", c.DataDelivered, c.DataDropped)
	}
	if c.Control["UPDATE"] == 0 {
		t.Fatal("no periodic updates")
	}
}

func TestProactiveDropsBeforeConvergence(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(4, 150, 20), dsdv.New())
	// immediate send: no route yet, DSDV drops rather than buffers
	w.AddFlow(ids[0], ids[3], 0.05, 0.05, 2, 256)
	if err := w.Run(5); err != nil {
		t.Fatal(err)
	}
	if got := w.Collector().DataDropped; got == 0 {
		t.Fatal("pre-convergence sends were not dropped")
	}
}

func TestUpdateIntervalOption(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(3, 150, 20), dsdv.New())
	w.AddFlow(ids[0], ids[2], 6, 0.5, 3, 256)
	if err := w.Run(40); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	// one full dump every 2 s from a phase in (0, 2): twenty per node by
	// t = 40, and no link breaks to add any
	if c.Control["UPDATE"] != 60 {
		t.Fatalf("updates = %d, want 3 nodes × 20 at a 2 s interval", c.Control["UPDATE"])
	}
	if c.DataDelivered != 3 {
		t.Fatalf("delivered = %d", c.DataDelivered)
	}
}

func TestFresherSequenceWins(t *testing.T) {
	var routers []*dsdv.Router
	factory := dsdv.New()
	wrapped := func() netstack.Router {
		r := factory().(*dsdv.Router)
		routers = append(routers, r)
		return r
	}
	w, ids := routetest.World(t, 1, routetest.Chain(3, 150, 20), wrapped)
	if err := w.Run(10); err != nil {
		t.Fatal(err)
	}
	rt, ok := routers[0].Table().Lookup(ids[2], w.Engine().Now())
	if !ok {
		t.Fatal("no route after convergence")
	}
	if rt.NextHop != ids[1] {
		t.Fatalf("route to far node via %d, want via middle %d", rt.NextHop, ids[1])
	}
	if rt.Hops != 2 {
		t.Fatalf("hops = %d", rt.Hops)
	}
}

func TestBreakAdvertisedWithOddSeq(t *testing.T) {
	// node 2 drifts away slowly enough for tables to converge first
	// (link 1–2 starts at 100 m and breaks after ~15 s at 10 m/s); node 0
	// must eventually lose the route through 1
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0)},
		{Pos: geom.V(200, 0)},
		{Pos: geom.V(300, 0), Vel: geom.V(10, 0)},
	}
	var routers []*dsdv.Router
	factory := dsdv.New()
	wrapped := func() netstack.Router {
		r := factory().(*dsdv.Router)
		routers = append(routers, r)
		return r
	}
	w, ids := routetest.World(t, 1, vehicles, wrapped)
	if err := w.Run(25); err != nil {
		t.Fatal(err)
	}
	if _, ok := routers[0].Table().Lookup(ids[2], w.Engine().Now()); ok {
		t.Fatal("route to departed node still valid at the far end")
	}
	if w.Collector().RouteBreaks == 0 {
		t.Fatal("no breaks recorded")
	}
}
