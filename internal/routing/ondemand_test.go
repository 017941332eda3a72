package routing_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/routing/abedi"
	"github.com/vanetlab/relroute/internal/routing/aodv"
	"github.com/vanetlab/relroute/internal/routing/niude"
	"github.com/vanetlab/relroute/internal/routing/pbr"
	"github.com/vanetlab/relroute/internal/routing/routetest"
	"github.com/vanetlab/relroute/internal/routing/taleb"
)

// tableDriven is every router built on routing.OnDemand: the properties
// below belong to the shared loop, so each must hold for all of them.
var tableDriven = []struct {
	name    string
	factory netstack.RouterFactory
}{
	{"AODV", aodv.New()},
	{"PBR", pbr.New()},
	{"Taleb", taleb.New()},
	{"Abedi", abedi.New()},
	{"NiuDe", niude.New()},
}

// onDemand is the part of the embedded core the tests reach into.
type onDemand interface {
	netstack.Router
	Table() *routing.Table
	MergeReverse(routing.Route)
}

// capture wraps a factory so the test can reach the routers a world built.
func capture(factory netstack.RouterFactory, into *[]onDemand) netstack.RouterFactory {
	return func() netstack.Router {
		r := factory().(onDemand)
		*into = append(*into, r)
		return r
	}
}

// outOfReach is a source and a destination no radio connects.
func outOfReach() []routetest.Vehicle {
	return []routetest.Vehicle{{Pos: geom.V(0, 0)}, {Pos: geom.V(5000, 0)}}
}

func TestRetryBudgetThenQueueDropped(t *testing.T) {
	for _, tc := range tableDriven {
		t.Run(tc.name, func(t *testing.T) {
			w, ids := routetest.World(t, 1, outOfReach(), tc.factory)
			w.AddFlow(ids[0], ids[1], 1, 0.1, 3, 256)
			if err := w.Run(8); err != nil { // three timeouts of at most 1.2 s, with room
				t.Fatal(err)
			}
			c := w.Collector()
			if c.RouteDiscoveries != 3 || c.Control[netstack.KindRREQ] != 3 {
				t.Errorf("discoveries = %d, RREQs sent = %d; want the first flood and exactly 2 re-floods",
					c.RouteDiscoveries, c.Control[netstack.KindRREQ])
			}
			if c.DataSent != 3 || c.DataDropped != 3 || c.DataDelivered != 0 {
				t.Errorf("sent %d, dropped %d, delivered %d; want every queued packet counted as dropped",
					c.DataSent, c.DataDropped, c.DataDelivered)
			}
		})
	}
}

func TestFullQueueDropsEvicted(t *testing.T) {
	for _, tc := range tableDriven {
		t.Run(tc.name, func(t *testing.T) {
			w, ids := routetest.World(t, 1, outOfReach(), tc.factory)
			// 17 packets inside the first discovery round: the queue holds 16
			w.AddFlow(ids[0], ids[1], 1, 0.01, 17, 256)
			w.StartRun()
			defer w.EndRun()
			if err := w.AdvanceTo(1.5); err != nil {
				t.Fatal(err)
			}
			c := w.Collector()
			if c.DataSent != 17 || c.DataDropped != 1 || c.RouteDiscoveries != 1 {
				t.Fatalf("mid-discovery: sent %d, dropped %d, discoveries %d; want 17, 1 (the evicted packet), 1",
					c.DataSent, c.DataDropped, c.RouteDiscoveries)
			}
			if err := w.AdvanceTo(8); err != nil {
				t.Fatal(err)
			}
			if c.DataDropped != 17 {
				t.Fatalf("after giving up: dropped %d of 17", c.DataDropped)
			}
		})
	}
}

func TestSendFailureInvalidatesEveryRouteViaHop(t *testing.T) {
	for _, tc := range tableDriven {
		t.Run(tc.name, func(t *testing.T) {
			var routers []onDemand
			// 150 m spacing, 250 m range: everything node 0 sends goes through node 1
			w, ids := routetest.World(t, 1, routetest.Chain(4, 150, 20), capture(tc.factory, &routers))
			w.AddFlow(ids[0], ids[3], 2, 0.5, 6, 256)
			w.AddFlow(ids[0], ids[2], 2.2, 0.5, 6, 256)
			if err := w.Run(5); err != nil {
				t.Fatal(err)
			}
			src, now := routers[0], w.Engine().Now()
			for _, dst := range ids[2:] {
				if rt, ok := src.Table().Lookup(dst, now); !ok || rt.NextHop != ids[1] {
					t.Fatalf("no route to %d via %d before the failure (ok=%v)", dst, ids[1], ok)
				}
			}
			c := w.Collector()
			breaks, dropped := c.RouteBreaks, c.DataDropped
			src.OnSendFailed(&netstack.Packet{Kind: netstack.KindData, Data: true, Src: ids[0], Dst: ids[3]}, ids[1])
			for _, dst := range ids[1:] {
				if _, ok := src.Table().Lookup(dst, now); ok {
					t.Errorf("route to %d survived the failure of its next hop", dst)
				}
			}
			if c.RouteBreaks-breaks < 2 {
				t.Errorf("route breaks counted: %d, want at least the 2 routes in use", c.RouteBreaks-breaks)
			}
			if c.DataDropped-dropped != 1 {
				t.Errorf("the failed data packet was counted dropped %d times", c.DataDropped-dropped)
			}
		})
	}
}

func TestWorseReverseRouteNeverReplacesBetter(t *testing.T) {
	const dst = netstack.NodeID(9)
	offers := []struct {
		why      string
		via      netstack.NodeID
		hops     int
		lifetime float64
		wantVia  netstack.NodeID
	}{
		{"first route", 1, 3, 10, 1},
		{"more hops, however long-lived", 2, 4, 99, 1},
		{"equal hops, shorter lifetime", 2, 3, 5, 1},
		{"equal hops, equal lifetime", 2, 3, 10, 1},
		{"equal hops, longer lifetime", 3, 3, 11, 3},
		{"fewer hops, however short-lived", 4, 2, 1, 4},
	}
	for _, tc := range tableDriven {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.factory().(onDemand)
			for _, o := range offers {
				r.MergeReverse(routing.Route{Dst: dst, NextHop: o.via, Hops: o.hops, Lifetime: o.lifetime, Valid: true})
				if rt, _ := r.Table().Get(dst); rt.NextHop != o.wantVia {
					t.Fatalf("%s: route via %d, want %d", o.why, rt.NextHop, o.wantVia)
				}
			}
			// a broken route protects nothing
			r.Table().InvalidateVia(4)
			r.MergeReverse(routing.Route{Dst: dst, NextHop: 5, Hops: 9, Valid: true})
			if rt, _ := r.Table().Get(dst); rt.NextHop != 5 || !rt.Valid {
				t.Fatalf("an invalid route blocked its replacement: %+v", rt)
			}
		})
	}
}
