package rsu_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/routing/routetest"
	"github.com/vanetlab/relroute/internal/routing/rsu"
)

// drrWorld builds vehicles plus RSUs wired to one backbone.
func drrWorld(t *testing.T, vehicles []routetest.Vehicle, rsuPos []geom.Vec2) (*netstack.World, []netstack.NodeID, []netstack.NodeID, *rsu.Backbone) {
	t.Helper()
	backbone := rsu.NewBackbone()
	w, ids := routetest.World(t, 1, vehicles, rsu.NewVehicle())
	var rsuIDs []netstack.NodeID
	for _, p := range rsuPos {
		rsuIDs = append(rsuIDs, w.AddStaticNode(netstack.RSU, p, rsu.NewUnit(backbone)))
	}
	return w, ids, rsuIDs, backbone
}

func TestV2VWhenConnected(t *testing.T) {
	w, ids, _, _ := drrWorld(t, routetest.Chain(4, 150, 20), nil)
	routetest.MustDeliverAll(t, w, ids[0], ids[3], 5)
}

func TestBackboneBridgesPartition(t *testing.T) {
	// two vehicle clusters far apart, one RSU per cluster: only the wired
	// backbone can bridge them
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0)},
		{Pos: geom.V(100, 0)},
		{Pos: geom.V(5000, 0)},
		{Pos: geom.V(5100, 0)},
	}
	w, ids, _, _ := drrWorld(t, vehicles,
		[]geom.Vec2{geom.V(150, 0), geom.V(4950, 0)})
	w.AddFlow(ids[0], ids[3], 3, 0.5, 5, 256)
	if err := w.Run(15); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataDelivered != 5 {
		t.Fatalf("delivered = %d of 5 across the partition", c.DataDelivered)
	}
	// sanity: with no RSUs the same flow dies
	w2, ids2, _, _ := drrWorld(t, vehicles, nil)
	w2.AddFlow(ids2[0], ids2[3], 3, 0.5, 5, 256)
	if err := w2.Run(15); err != nil {
		t.Fatal(err)
	}
	if got := w2.Collector().DataDelivered; got != 0 {
		t.Fatalf("partition crossed without infrastructure: %d", got)
	}
}

func TestRSUBuffersForAbsentVehicle(t *testing.T) {
	// destination arrives in RSU coverage only later: the RSU must act as
	// a virtual equivalent node, holding the packet until then
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0)},                         // source next to RSU A
		{Pos: geom.V(2000, 0), Vel: geom.V(-25, 0)}, // dest driving toward RSU B
	}
	w, ids, rsuIDs, _ := drrWorld(t, vehicles,
		[]geom.Vec2{geom.V(100, 0), geom.V(1000, 0)})
	_ = rsuIDs
	w.AddFlow(ids[0], ids[1], 1, 1, 3, 256)
	if err := w.Run(40); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataDelivered != 3 {
		t.Fatalf("delivered = %d of 3 buffered packets", c.DataDelivered)
	}
	// delivery waited for the drive: (2000-1000-250)/25 = 30 s
	if c.MeanDelay() < 5 {
		t.Fatalf("mean delay = %v, too fast for a buffered handover", c.MeanDelay())
	}
}

func TestBufferTTLDropsStalePackets(t *testing.T) {
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0)},
		{Pos: geom.V(50000, 0)}, // never arrives
	}
	backbone := rsu.NewBackbone()
	w, ids := routetest.World(t, 1, vehicles, rsu.NewVehicle())
	unit := rsu.NewUnit(backbone)
	w.AddStaticNode(netstack.RSU, geom.V(100, 0), unit)
	w.AddFlow(ids[0], ids[1], 1, 1, 2, 256) // created at t = 1 and t = 2
	w.StartRun()
	// held 30 s from creation; the flush runs every 0.25 s
	if err := w.AdvanceTo(30.9); err != nil {
		t.Fatal(err)
	}
	if unit.Buffered() != 2 || w.Collector().DataDropped != 0 {
		t.Fatalf("at t = 30.9: buffered %d, dropped %d; want both held for 30 s",
			unit.Buffered(), w.Collector().DataDropped)
	}
	if err := w.AdvanceTo(32.4); err != nil {
		t.Fatal(err)
	}
	if unit.Buffered() != 0 {
		t.Fatalf("buffered = %d after TTL", unit.Buffered())
	}
	if got := w.Collector().DataDropped; got != 2 {
		t.Fatalf("dropped = %d; stale buffered packets not counted as drops", got)
	}
}

func TestLocationRegistryTracksBeacons(t *testing.T) {
	// the vehicle drives from RSU A's coverage to RSU B's; packets sent
	// after the move must land via B (registry synchronization)
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0)},                       // source, static near A
		{Pos: geom.V(200, 0), Vel: geom.V(25, 0)}, // dest drives toward B
	}
	w, ids, _, _ := drrWorld(t, vehicles,
		[]geom.Vec2{geom.V(100, 0), geom.V(1200, 0)})
	// send late, once the dest is only reachable via B
	w.AddFlow(ids[0], ids[1], 30, 0.5, 4, 256)
	if err := w.Run(45); err != nil {
		t.Fatal(err)
	}
	if got := w.Collector().DataDelivered; got != 4 {
		t.Fatalf("delivered = %d of 4 after handover", got)
	}
}

// An RSU is a flow endpoint like a vehicle: data addressed to it is
// delivered there, and data it originates is handed to its destination in
// range.
func TestRSUFlowEndpoints(t *testing.T) {
	w, ids, rsuIDs, _ := drrWorld(t, []routetest.Vehicle{{Pos: geom.V(0, 0)}}, []geom.Vec2{geom.V(100, 0)})
	w.AddFlow(ids[0], rsuIDs[0], 2, 0.5, 3, 256)
	w.AddFlow(rsuIDs[0], ids[0], 2, 0.5, 3, 256)
	if err := w.Run(6); err != nil {
		t.Fatal(err)
	}
	if c := w.Collector(); c.DataDelivered != 6 || c.DataDropped != 0 {
		t.Fatalf("delivered %d, dropped %d; want all 6 delivered", c.DataDelivered, c.DataDropped)
	}
}

// An RSU hands a packet to a destination in range only with a hop left, and
// buffers where it is a packet for a destination the registry never saw
// and the location service cannot place (one that left or crashed).
func TestUnitDropsAtTTLAndBuffersTheUnplaced(t *testing.T) {
	backbone := rsu.NewBackbone()
	w, ids := routetest.World(t, 1, []routetest.Vehicle{{Pos: geom.V(10, 0)}}, rsu.NewVehicle())
	unit := rsu.NewUnit(backbone)
	self := w.AddStaticNode(netstack.RSU, geom.V(0, 0), unit)
	w.StartRun()
	if err := w.AdvanceTo(2); err != nil { // the vehicle's beacons have been heard
		t.Fatal(err)
	}
	last := &netstack.Packet{Kind: netstack.KindData, Src: self, Dst: ids[0], TTL: 1, Size: 64}
	unit.HandlePacket(last)
	if got := w.Collector().DataDropped; got != 1 {
		t.Fatalf("a packet out of hops for a neighbor: %d dropped, want 1", got)
	}
	unit.HandlePacket(&netstack.Packet{Kind: netstack.KindData, Src: self, Dst: 99, TTL: 8, Size: 64})
	if unit.Buffered() != 1 {
		t.Fatalf("a packet for an unplaced destination: %d buffered, want it held here", unit.Buffered())
	}
}

// With no RSU in range, no neighbor the destination and no position for it,
// a DRR vehicle's retry carries the packet on.
func TestVehicleRetryCarriesTheUnplaced(t *testing.T) {
	var v *rsu.VehicleRouter
	factory := rsu.NewVehicle()
	routetest.World(t, 1, []routetest.Vehicle{{Pos: geom.V(0, 0)}}, func() netstack.Router {
		r := factory()
		v = r.(*rsu.VehicleRouter)
		return r
	})
	if got := v.Retry(&netstack.Packet{Kind: netstack.KindData, Dst: 99, TTL: 8}); got != routing.Carry() {
		t.Fatalf("retry = %+v, want a carry", got)
	}
}
