package pbr_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/pbr"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

func TestDeliversAcrossChain(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(5, 150, 20), pbr.New())
	routetest.MustDeliverAll(t, w, ids[0], ids[4], 5)
}

func TestPrefersLongLivedPath(t *testing.T) {
	// Two relays connect src and dst: relay S moves with the flow (stable
	// link), relay U cuts across (short-lived links). The destination
	// collects both RREQ copies and must answer via the stable relay.
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0), Vel: geom.V(20, 0)},      // 0: source
		{Pos: geom.V(200, 10), Vel: geom.V(20, 0)},   // 1: stable relay
		{Pos: geom.V(200, -10), Vel: geom.V(-19, 0)}, // 2: opposite-direction relay
		{Pos: geom.V(400, 0), Vel: geom.V(20, 0)},    // 3: destination
	}
	var routers []*pbr.Router
	factory := pbr.New()
	wrapped := func() netstack.Router {
		r := factory().(*pbr.Router)
		routers = append(routers, r)
		return r
	}
	w, ids := routetest.World(t, 1, vehicles, wrapped)
	w.AddFlow(ids[0], ids[3], 2, 1, 3, 256)
	if err := w.Run(7); err != nil {
		t.Fatal(err)
	}
	// destination's reverse route to the source must run through the
	// stable relay (node 1), not the crossing one
	rt, ok := routers[3].Table().Get(ids[0])
	if !ok || !rt.Valid {
		t.Fatal("destination has no reverse route")
	}
	if rt.NextHop != ids[1] {
		t.Fatalf("reverse route via %d, want stable relay %d", rt.NextHop, ids[1])
	}
	if w.Collector().DataDelivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestPreemptiveRebuildBeforeExpiry(t *testing.T) {
	// destination slowly leaves range: predicted lifetime is finite, so
	// the source must re-discover BEFORE the break (repairs > 0) and keep
	// delivering through the rebuilt path while connectivity lasts
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0), Vel: geom.V(0, 0)},
		{Pos: geom.V(180, 0), Vel: geom.V(6, 0)},
		{Pos: geom.V(360, 0), Vel: geom.V(12, 0)},
	}
	w, ids := routetest.World(t, 1, vehicles, pbr.New())
	w.AddFlow(ids[0], ids[2], 1, 0.5, 20, 256)
	if err := w.Run(12); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.RouteRepairs == 0 {
		t.Fatal("no preemptive rebuilds with finite predicted lifetime")
	}
	if c.DataDelivered < 5 {
		t.Fatalf("delivered = %d", c.DataDelivered)
	}
	// the predicted path lifetime metric was recorded
	if c.MeanPathLifetime() <= 0 {
		t.Fatal("no path-lifetime predictions recorded")
	}
}
