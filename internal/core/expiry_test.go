package core

import (
	"maps"
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
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
	if src.paths != nil {
		t.Fatal("paths made before the first reply")
	}
	src.paths = make(map[netstack.NodeID]*activePath)
	for dst, path := range via {
		src.paths[dst] = &activePath{route: routing.SourceRoute{Path: path}}
	}
	breaks := w.Collector().RouteBreaks
	src.OnNeighborExpired(lost)
	if got := w.Collector().RouteBreaks - breaks; got != 3 {
		t.Fatalf("%d route breaks counted, want 3", got)
	}
	got := slices.Sorted(maps.Keys(src.paths))
	if want := []netstack.NodeID{dsts[1], dsts[3], dsts[5]}; !slices.Equal(got, want) {
		t.Fatalf("paths left to %v, want %v", got, want)
	}
	for _, dst := range got {
		if p := src.paths[dst].route.Path; !slices.Equal(p, via[dst]) {
			t.Fatalf("path to %d became %v, want %v", dst, p, via[dst])
		}
	}
}
