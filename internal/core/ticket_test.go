package core_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/core"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

func TestTicketProbingDelivers(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(5, 150, 20), core.NewTicketRouter())
	routetest.MustDeliverAll(t, w, ids[0], ids[4], 5)
	c := w.Collector()
	if c.Control[netstack.KindProbe] == 0 {
		t.Fatal("no probes sent")
	}
	if c.RouteDiscoveries == 0 {
		t.Fatal("no probing rounds counted")
	}
}

func TestProbingBeatsFloodingOnOverhead(t *testing.T) {
	// the protocol's reason to exist: "selectively probes, rather than
	// brute-force floods". On a wide 2-D topology, a flooded discovery
	// costs ≥ N transmissions (every node rebroadcasts once); ticket
	// probing costs ≈ L × path length, far below N.
	var vehicles []routetest.Vehicle
	for i := 0; i < 48; i++ { // 8×6 grid of vehicles, 100 m spacing
		vehicles = append(vehicles, routetest.Vehicle{
			Pos: geom.V(float64(i%8)*100, float64(i/8)*100),
			Vel: geom.V(20, 0),
		})
	}
	w, ids := routetest.World(t, 1, vehicles, core.NewTicketRouter(core.WithTickets(3)))
	w.AddFlow(ids[0], ids[47], 3, 1, 3, 256)
	if err := w.Run(10); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataDelivered == 0 {
		t.Fatal("nothing delivered")
	}
	probesPerRound := float64(c.Control[netstack.KindProbe]) / float64(c.RouteDiscoveries)
	if probesPerRound > float64(len(vehicles)) {
		t.Fatalf("probes per discovery = %v ≥ node count %d; probing degenerated into flooding",
			probesPerRound, len(vehicles))
	}
}

// scored is TBP-SS with the link scores the test sets: score(a, b) seconds
// for the link from node a to neighbor b.
func scored(score func(a, b netstack.NodeID) float64) netstack.RouterFactory {
	return core.NewTicketRouter(core.WithScorer(func(api *netstack.API, nb netstack.Neighbor, _ float64) float64 {
		return score(api.Self(), nb.ID)
	}))
}

// shifted is TBP-SS scoring every link by the mean-duration metric plus by
// seconds: under the 3 s threshold it admits exactly what a threshold of
// 3 − by admits of the plain metric.
func shifted(by float64, opts ...core.TicketOption) netstack.RouterFactory {
	return core.NewTicketRouter(append(opts, core.WithScorer(func(_ *netstack.API, _ netstack.Neighbor, s float64) float64 {
		return by + s
	}))...)
}

func TestStabilityConstraintRejectsFleetingLinks(t *testing.T) {
	// the only route to the destination crosses the relay, 0 → 1 → 2; the
	// relay's links score fleeting, the others 60 s. TBP-SS must refuse a
	// link scored below its 3 s threshold and take one scored at it.
	delivered := func(fleeting float64) int {
		t.Helper()
		w, ids := routetest.World(t, 1, routetest.Chain(3, 200, 0), scored(func(a, b netstack.NodeID) float64 {
			if a == 1 || b == 1 {
				return fleeting
			}
			return 60
		}))
		w.AddFlow(ids[0], ids[2], 1, 1, 3, 256)
		if err := w.Run(8); err != nil {
			t.Fatal(err)
		}
		return w.Collector().DataDelivered
	}
	if got := delivered(2.99); got != 0 {
		t.Fatalf("delivered %d over links scored 2.99 s, below the 3 s stability constraint", got)
	}
	if got := delivered(3); got != 3 {
		t.Fatalf("delivered %d of 3 over links scored exactly the 3 s threshold", got)
	}
}

func TestPicksStablePathAmongCandidates(t *testing.T) {
	// two disjoint 2-hop paths: one through a co-moving relay, one
	// through an opposite-direction relay; the active path must use the
	// stable relay
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0), Vel: geom.V(20, 0)},      // 0 source
		{Pos: geom.V(200, 15), Vel: geom.V(20, 0)},   // 1 stable relay
		{Pos: geom.V(200, -15), Vel: geom.V(-20, 0)}, // 2 fleeting relay
		{Pos: geom.V(400, 0), Vel: geom.V(20, 0)},    // 3 destination
	}
	var routers []*core.TicketRouter
	// both relays stay candidates (the threshold admits what 0.1 s would
	// of the plain metric): the ranking, not the threshold, must pick
	factory := shifted(2.9, core.WithTickets(4))
	wrapped := func() netstack.Router {
		r := factory().(*core.TicketRouter)
		routers = append(routers, r)
		return r
	}
	w, ids := routetest.World(t, 1, vehicles, wrapped)
	w.AddFlow(ids[0], ids[3], 2, 1, 3, 256)
	if err := w.Run(7); err != nil {
		t.Fatal(err)
	}
	path, ok := routers[0].Route(ids[3])
	if !ok {
		t.Fatal("source holds no active path")
	}
	if len(path) != 3 || path[1] != ids[1] {
		t.Fatalf("active path = %v, want via stable relay %d", path, ids[1])
	}
	if stability := w.Collector().MeanPathLifetime(); stability <= 0 {
		t.Fatalf("path stability = %v", stability)
	}
}

func TestBreakRecoveryReprobes(t *testing.T) {
	// the relay drives away mid-flow (break at ~2.8 s); the destination
	// itself drives toward the source and enters direct range at ~11 s:
	// the source must re-probe and resume delivering
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0)},
		{Pos: geom.V(180, 0), Vel: geom.V(25, 0)},  // departing relay
		{Pos: geom.V(420, 0), Vel: geom.V(-15, 0)}, // approaching destination
	}
	// the departing relay's link is short-lived: admit what a 0.5 s
	// threshold would of the plain metric
	w, ids := routetest.World(t, 1, vehicles, shifted(2.5))
	w.AddFlow(ids[0], ids[2], 1, 0.5, 26, 256)
	if err := w.Run(14); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataDelivered < 6 {
		t.Fatalf("delivered = %d", c.DataDelivered)
	}
	if c.RouteDiscoveries < 2 {
		t.Fatalf("discoveries = %d; no re-probing after the break", c.RouteDiscoveries)
	}
}

func TestTicketBudgetControlsFanout(t *testing.T) {
	run := func(tickets int) int {
		vehicles := routetest.Chain(12, 120, 20)
		w, ids := routetest.World(t, 1, vehicles, core.NewTicketRouter(core.WithTickets(tickets)))
		w.AddFlow(ids[0], ids[11], 3, 1, 1, 256)
		if err := w.Run(8); err != nil {
			t.Fatal(err)
		}
		return w.Collector().Control[netstack.KindProbe]
	}
	one := run(1)
	eight := run(8)
	if eight <= one {
		t.Fatalf("probe volume did not grow with ticket budget: L=1→%d, L=8→%d", one, eight)
	}
}
