package core

import (
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// TestNeighborExpiryDeletesThePathsThroughTheLostHop holds source routes
// whose first hop is the lost neighbor, another neighbor, or the lost
// neighbor further down the path. Losing the neighbor must delete exactly
// the routes whose first hop it was, each counted as one route break, and
// leave the rest as they were.
func TestNeighborExpiryDeletesThePathsThroughTheLostHop(t *testing.T) {
	var src *TicketRouter
	tickets := NewTicketRouter()
	w, ids := routetest.World(t, 1, routetest.Chain(3, 100, 0), func() netstack.Router {
		r := tickets()
		if src == nil {
			src = r.(*TicketRouter)
		}
		return r
	})
	// the destinations need not be nodes: expiry reads only the paths
	self, lost, kept := ids[0], ids[1], ids[2]
	dsts := []netstack.NodeID{100, 101, 102, 103, 104, 105}
	via := map[netstack.NodeID][]netstack.NodeID{
		dsts[0]: {self, lost, dsts[0]},
		dsts[1]: {self, kept, dsts[1]},
		dsts[2]: {self, lost, kept, dsts[2]},
		dsts[3]: {self, kept, lost, dsts[3]},
		dsts[4]: {self, lost, dsts[4]},
		dsts[5]: {self, kept, dsts[5]},
	}
	for dst, path := range via {
		src.Learn(dst, path)
	}
	breaks := w.Collector().RouteBreaks
	src.OnNeighborExpired(lost)
	if got := w.Collector().RouteBreaks - breaks; got != 3 {
		t.Fatalf("%d route breaks counted, want 3", got)
	}
	for _, dst := range dsts {
		path, ok := src.Route(dst)
		if keep := via[dst][1] != lost; ok != keep {
			t.Fatalf("route to %d held = %v, want %v", dst, ok, keep)
		}
		if ok && !slices.Equal(path, via[dst]) {
			t.Fatalf("path to %d became %v, want %v", dst, path, via[dst])
		}
	}
}

// TestBreakNoticeCountsAHeldRoute: a break notice at its origin forgets the
// route it names and counts one route break. A second notice for the route
// already forgotten counts none, and neither does a notice at a relay.
func TestBreakNoticeCountsAHeldRoute(t *testing.T) {
	var routers []*TicketRouter
	tickets := NewTicketRouter()
	w, ids := routetest.World(t, 1, routetest.Chain(3, 100, 0), func() netstack.Router {
		r := tickets().(*TicketRouter)
		routers = append(routers, r)
		return r
	})
	src, relay, dst := routers[0], routers[1], ids[2]
	src.Learn(dst, slices.Clone(ids))
	notice := func(at *TicketRouter) int {
		breaks := w.Collector().RouteBreaks
		pkt := at.API.NewPacket()
		*pkt = netstack.Packet{Kind: netstack.KindRERR, Src: ids[1], Dst: ids[0], From: ids[1], To: at.API.Self(),
			TTL: 32, Hops: 1, Size: 24, Payload: breakNotice{Origin: ids[0], Target: dst}}
		at.HandlePacket(pkt)
		return w.Collector().RouteBreaks - breaks
	}
	if n := notice(relay); n != 0 {
		t.Fatalf("a notice at a relay counted %d route breaks, want 0", n)
	}
	if n := notice(src); n != 1 {
		t.Fatalf("a notice at the origin counted %d route breaks, want 1", n)
	}
	if path, ok := src.Route(dst); ok {
		t.Fatalf("the origin still holds %v after the notice", path)
	}
	if n := notice(src); n != 0 {
		t.Fatalf("a notice for a forgotten route counted %d route breaks, want 0", n)
	}
}
