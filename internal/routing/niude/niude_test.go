package niude_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/niude"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

func TestDeliversAcrossChain(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(5, 150, 20), niude.New())
	routetest.MustDeliverAll(t, w, ids[0], ids[4], 5)
}

func TestPrefersReliableRelay(t *testing.T) {
	// two relays at equal progress: the co-moving one has availability ≈1
	// over the horizon, the crossing one ≈0 — the destination must answer
	// through the reliable relay
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0), Vel: geom.V(20, 0)},
		{Pos: geom.V(200, 12), Vel: geom.V(20, 0)},
		{Pos: geom.V(200, -12), Vel: geom.V(-25, 0)},
		{Pos: geom.V(400, 0), Vel: geom.V(20, 0)},
	}
	var routers []*niude.Router
	factory := niude.New()
	wrapped := func() netstack.Router {
		r := factory().(*niude.Router)
		routers = append(routers, r)
		return r
	}
	w, ids := routetest.World(t, 1, vehicles, wrapped)
	w.AddFlow(ids[0], ids[3], 2, 1, 3, 256)
	if err := w.Run(7); err != nil {
		t.Fatal(err)
	}
	rt, ok := routers[3].Table().Get(ids[0])
	if !ok || !rt.Valid {
		t.Fatal("destination has no reverse route")
	}
	if rt.NextHop != ids[1] {
		t.Fatalf("reverse route via %d, want reliable relay %d", rt.NextHop, ids[1])
	}
	if w.Collector().DataDelivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestProactiveMaintenance(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(4, 150, 20), niude.New())
	w.AddFlow(ids[0], ids[3], 1, 0.5, 24, 256)
	if err := w.Run(14); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.RouteRepairs == 0 {
		t.Fatal("no proactive rebuilds before the reliability horizon")
	}
	if c.PDR() < 0.9 {
		t.Fatalf("PDR = %v", c.PDR())
	}
}
