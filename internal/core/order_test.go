package core

import (
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// TestNeighborExpiryRediscoversInDestinationOrder loses the first hop of
// six source routes at once, each with data waiting: the six new probing
// rounds must start in ascending destination order however the path map
// iterates. Go draws a fresh iteration order per range, so a leak shows
// within a few rounds.
func TestNeighborExpiryRediscoversInDestinationOrder(t *testing.T) {
	for round := 0; round < 50; round++ {
		// 0: source; 1: its only neighbor, which records what it is sent;
		// 2–7: destinations out of everyone's reach
		vehicles := []routetest.Vehicle{{Pos: geom.V(0, 0)}, {Pos: geom.V(200, 0)}}
		for i := 0; i < 6; i++ {
			vehicles = append(vehicles, routetest.Vehicle{Pos: geom.V(5000+float64(20*i), 0)})
		}
		var log []routetest.Heard
		var src *TicketRouter
		record := routetest.Recorder(&log)
		w, ids := routetest.World(t, 1, vehicles, func() netstack.Router {
			if src == nil {
				src = NewTicketRouter()().(*TicketRouter)
				return src
			}
			return record()
		})
		relay, dsts := ids[1], ids[2:]
		w.StartRun()
		t.Cleanup(w.EndRun)
		if err := w.AdvanceTo(2); err != nil {
			t.Fatal(err)
		}
		// data waits for each destination while a route through the relay
		// appears by other means: the discovery ends, the queue stays
		for i := len(dsts) - 1; i >= 0; i-- {
			src.Originate(dsts[i], 64)
			src.paths[dsts[i]] = &activePath{hops: []netstack.NodeID{ids[0], relay, dsts[i]}}
		}
		if err := w.AdvanceTo(3.5); err != nil {
			t.Fatal(err)
		}
		log = log[:0]
		breaks := w.Collector().RouteBreaks
		src.OnNeighborExpired(relay)
		if got := w.Collector().RouteBreaks - breaks; got != len(dsts) {
			t.Fatalf("round %d: %d route breaks counted, want %d", round, got, len(dsts))
		}
		if err := w.AdvanceTo(3.7); err != nil {
			t.Fatal(err)
		}
		var got []netstack.NodeID
		for _, h := range log {
			got = append(got, h.Dst)
		}
		if !slices.Equal(got, dsts) {
			t.Fatalf("round %d: probing rounds started for %v, want ascending destination IDs %v", round, got, dsts)
		}
	}
}
