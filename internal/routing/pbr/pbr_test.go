package pbr_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
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

// TestRenewsCappedRouteBeforeItsEntryExpires runs a flow for 140 s to a
// destination drifting away at 0.5 m/s from 50 m, so the path is predicted
// to live for minutes. The route entry is held for 120 s at most, and the
// renewal must come before that entry expires: each discovery after the
// first is a renewal, never a rediscovery for data that found no route.
func TestRenewsCappedRouteBeforeItsEntryExpires(t *testing.T) {
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0)},
		{Pos: geom.V(50, 0), Vel: geom.V(0.5, 0)},
	}
	var src *pbr.Router
	factory := pbr.New()
	w, ids := routetest.World(t, 1, vehicles, func() netstack.Router {
		r := factory().(*pbr.Router)
		if src == nil {
			src = r
		}
		return r
	})
	w.AddFlow(ids[0], ids[1], 3, 1, 140, 256)
	w.StartRun()
	if err := w.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	rt, ok := src.Table().Get(ids[1])
	if !ok || rt.Lifetime <= 121 {
		t.Fatalf("route %+v (%v): want one predicted to live past 121 s", rt, ok)
	}
	if err := w.AdvanceTo(150); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.RouteRepairs == 0 || c.RouteDiscoveries != 1+c.RouteRepairs {
		t.Errorf("%d discoveries, %d of them renewals: want the first discovery and renewals only",
			c.RouteDiscoveries, c.RouteRepairs)
	}
	if c.DataDelivered != 140 {
		t.Errorf("delivered %d of 140", c.DataDelivered)
	}
}

// A warm relay allocates nothing: the record it sends its request in comes
// back from its frame, and a copy it drops at the TTL takes no record.
func TestWarmRelayAllocs(t *testing.T) {
	var routers []*pbr.Router
	factory := pbr.New()
	w, ids := routetest.World(t, 1, routetest.Chain(2, 100, 0), func() netstack.Router {
		r := factory().(*pbr.Router)
		routers = append(routers, r)
		return r
	})
	w.StartRun()
	if err := w.AdvanceTo(2.05); err != nil { // everyone has beaconed twice
		t.Fatal(err)
	}
	relay := routers[1]
	c := routetest.RelayAllocs(w, relay, relay.API, ids[0],
		routing.Request[float64]{Origin: ids[0], Target: ids[1] + 1, Path: link.Forever})
	if c.Allocs != 0 || c.Sent != 101 || c.Astray != 0 || c.Err != nil {
		t.Fatalf("%+v: want 0 objects, all 101 requests sent, every dropped copy back in the pool", c)
	}
}
