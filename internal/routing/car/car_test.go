package car_test

import (
	"math/rand"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/roadnet"
	"github.com/vanetlab/relroute/internal/routing/car"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

func TestDensityMapConnectivity(t *testing.T) {
	net, eb, wb, err := roadnet.Highway(2000, 2, 33)
	if err != nil {
		t.Fatal(err)
	}
	dmap := car.NewDensityMap(net, 250)
	// crowd the eastbound carriageway, leave the westbound one empty
	var positions []geom.Vec2
	for i := 0; i < 40; i++ {
		positions = append(positions, net.Segment(eb).PosAt(0, float64(i)*50))
	}
	// two refreshes to overcome the EWMA start-up
	dmap.Update(positions)
	dmap.Update(positions)
	if got := dmap.Density(eb); got <= 0 {
		t.Fatalf("eastbound density = %v", got)
	}
	if dmap.Connectivity(eb) <= dmap.Connectivity(wb) {
		t.Fatalf("crowded segment connectivity %v not above empty %v",
			dmap.Connectivity(eb), dmap.Connectivity(wb))
	}
}

func TestBestRoadPathPrefersConnectedRoad(t *testing.T) {
	// a 2x3 grid: two parallel west-east corridors; crowd the northern
	// one and the best path must run through it
	net, err := roadnet.Grid(3, 2, 500, 1, 14)
	if err != nil {
		t.Fatal(err)
	}
	dmap := car.NewDensityMap(net, 250)
	var positions []geom.Vec2
	// crowd the whole northern route: up the west connector, along the
	// y=500 corridor, down the east connector
	for y := 0.0; y <= 500; y += 40 {
		positions = append(positions, geom.V(0, y), geom.V(1000, y))
	}
	for x := 0.0; x <= 1000; x += 40 {
		positions = append(positions, geom.V(x, 500))
	}
	for i := 0; i < 4; i++ {
		dmap.Update(positions)
	}
	anchors, ok := dmap.BestRoadPath(geom.V(0, 0), geom.V(1000, 0))
	if !ok {
		t.Fatal("no road path found")
	}
	// the path must visit the crowded northern corridor
	north := false
	for _, a := range anchors {
		if a.Y > 400 {
			north = true
		}
	}
	if !north {
		t.Fatalf("path ignored the connected corridor: %v", anchors)
	}
}

func carWorld(t *testing.T, vehicles []routetest.Vehicle) (*netstack.World, []netstack.NodeID) {
	t.Helper()
	net, _, _, err := roadnet.Highway(2000, 2, 33)
	if err != nil {
		t.Fatal(err)
	}
	dmap := car.NewDensityMap(net, 250)
	w, ids := routetest.World(t, 1, vehicles, car.New(dmap))
	// refresh densities from true positions once per second
	var refresh func()
	eng := w.Engine()
	refresh = func() {
		var positions []geom.Vec2
		for i := 0; i < w.Nodes(); i++ {
			if p, ok := w.PositionOf(netstack.NodeID(i)); ok {
				positions = append(positions, p)
			}
		}
		dmap.Update(positions)
		eng.After(1, refresh)
	}
	eng.After(0, refresh)
	return w, ids
}

func TestDeliversAcrossChain(t *testing.T) {
	w, ids := carWorld(t, routetest.Chain(5, 150, 20))
	routetest.MustDeliverAll(t, w, ids[0], ids[4], 5)
}

func TestShortcutSkipsAbsurdAnchors(t *testing.T) {
	// src and dst sit on opposite carriageways 10 m apart; the road path
	// would detour via the crossover but the packet must go direct
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(1000, 0), Vel: geom.V(20, 0)},
		{Pos: geom.V(1010, 10.5), Vel: geom.V(-20, 0)},
	}
	w, ids := carWorld(t, vehicles)
	w.AddFlow(ids[0], ids[1], 1, 0.5, 4, 256)
	if err := w.Run(6); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataDelivered != 4 {
		t.Fatalf("delivered = %d", c.DataDelivered)
	}
	if got := c.MeanHops(); got > 1.01 {
		t.Fatalf("mean hops = %v, want direct delivery", got)
	}
}

func TestMonteCarloAgreesWithModelUnderTraffic(t *testing.T) {
	// integration sanity: a populated road model feeds plausible densities
	net, eb, _, err := roadnet.Highway(2000, 2, 33)
	if err != nil {
		t.Fatal(err)
	}
	model := mobility.NewRoadModel(net, rand.New(rand.NewSource(1)))
	mobility.Populate(model, rand.New(rand.NewSource(2)), mobility.PopulateOptions{
		Count: 60, SpeedMean: 25, SpeedStd: 4,
		Segments: []roadnet.SegmentID{eb},
	})
	dmap := car.NewDensityMap(net, 250)
	var positions []geom.Vec2
	for _, s := range model.StatesInto(nil) {
		positions = append(positions, s.Pos)
	}
	// several refreshes to pass the EWMA warm-up
	for i := 0; i < 6; i++ {
		dmap.Update(positions)
	}
	// 60 vehicles / 2000 m = 0.03 veh/m
	if d := dmap.Density(eb); d < 0.02 || d > 0.04 {
		t.Fatalf("estimated density = %v, want ≈0.03", d)
	}
	if got := dmap.Connectivity(eb); got < 0.9 {
		t.Fatalf("connectivity at 0.03 veh/m = %v, want ≈1", got)
	}
}
