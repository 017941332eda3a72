package greedy_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/routing/greedy"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

func TestDeliversAcrossChain(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(6, 150, 20), greedy.New())
	routetest.MustDeliverAll(t, w, ids[0], ids[5], 5)
}

func TestGreedyTakesLongestStride(t *testing.T) {
	// nodes at 0, 100, 200, 240 and dst at 480: from 0 the best stride is
	// 240 (in range, most progress). Expect 2 data hops (0→240→480), not 4.
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0)},
		{Pos: geom.V(100, 0)},
		{Pos: geom.V(200, 0)},
		{Pos: geom.V(240, 0)},
		{Pos: geom.V(480, 0)},
	}
	w, ids := routetest.World(t, 1, vehicles, greedy.New())
	w.AddFlow(ids[0], ids[4], 2, 1, 4, 256)
	if err := w.Run(8); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataDelivered != 4 {
		t.Fatalf("delivered = %d", c.DataDelivered)
	}
	if got := c.MeanHops(); got > 2.01 {
		t.Fatalf("mean hops = %v, want 2 (longest stride)", got)
	}
}

func TestCarryAndForwardAcrossVoid(t *testing.T) {
	// a void: the carrier moves toward the destination and bridges it
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0), Vel: geom.V(25, 0)},  // source drives east
		{Pos: geom.V(400, 0), Vel: geom.V(0, 0)}, // destination parked beyond range
	}
	// the 150 m gap closes at 25 m/s in 6 s, inside the 8 s carry budget
	w, ids := routetest.World(t, 1, vehicles, greedy.New())
	w.AddFlow(ids[0], ids[1], 1, 1, 2, 256)
	if err := w.Run(15); err != nil {
		t.Fatal(err)
	}
	if got := w.Collector().DataDelivered; got != 2 {
		t.Fatalf("delivered = %d; store-carry-forward failed", got)
	}
	// delivery required carrying: delay must reflect the drive time
	if d := w.Collector().MeanDelay(); d < 3 {
		t.Fatalf("mean delay = %v s, too fast for a 150 m carry", d)
	}
}

func TestCarryTimeoutDropsStrandedPackets(t *testing.T) {
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0)},                        // parked source
		{Pos: geom.V(10000, 0), Vel: geom.V(0, 0)}, // unreachable destination
	}
	w, ids := routetest.World(t, 1, vehicles, greedy.New())
	w.AddFlow(ids[0], ids[1], 1, 1, 3, 256) // carried from t = 1, 2 and 3
	w.StartRun()
	defer w.EndRun()
	// carried for 8 s, then dropped by the next 0.5 s sweep
	if err := w.AdvanceTo(8.9); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataDropped != 0 {
		t.Fatalf("dropped = %d by t = 8.9, before the 8 s carry timeout", c.DataDropped)
	}
	if err := w.AdvanceTo(11.7); err != nil {
		t.Fatal(err)
	}
	if c.DataDelivered != 0 {
		t.Fatal("delivered the undeliverable")
	}
	if c.DataDropped != 3 {
		t.Fatalf("dropped = %d by t = 11.7, want all three after the carry timeout", c.DataDropped)
	}
}

func TestDirectionBiasPicksAdvancingNeighbor(t *testing.T) {
	// two candidates with nearly equal progress; the one driving toward
	// the destination is preferred, measured by which relay forwards
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0), Vel: geom.V(0, 0)},      // 0: source
		{Pos: geom.V(200, 15), Vel: geom.V(-20, 0)}, // 1: retreating relay
		{Pos: geom.V(195, -15), Vel: geom.V(20, 0)}, // 2: advancing relay
		{Pos: geom.V(430, 0), Vel: geom.V(20, 0)},   // 3: destination
	}
	w, ids := routetest.World(t, 1, vehicles, greedy.New())
	w.AddFlow(ids[0], ids[3], 2, 0.5, 6, 256)
	if err := w.Run(8); err != nil {
		t.Fatal(err)
	}
	if got := w.Collector().DataDelivered; got < 5 {
		t.Fatalf("delivered = %d", got)
	}
}
