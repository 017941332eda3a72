package rsu

import (
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// Each test below builds a case in which one call has several qualifying
// map keys, and repeats it: Go draws a fresh map iteration order per range,
// so an order that leaks into the event queue shows within a few rounds.
const rounds = 50

// rsuWorld parks recording vehicles at vehPos and RSUs at rsuPos, all on
// one backbone, and runs 2 s so every beacon in range has been heard.
func rsuWorld(t *testing.T, vehPos, rsuPos []geom.Vec2) (*netstack.World, []netstack.NodeID, []*UnitRouter, *[]routetest.Heard) {
	t.Helper()
	log := new([]routetest.Heard)
	vehicles := make([]routetest.Vehicle, len(vehPos))
	for i, p := range vehPos {
		vehicles[i].Pos = p
	}
	w, ids := routetest.World(t, 1, vehicles, routetest.Recorder(log))
	b := NewBackbone()
	units := make([]*UnitRouter, len(rsuPos))
	for i, p := range rsuPos {
		units[i] = NewUnit(b)
		w.AddStaticNode(netstack.RSU, p, units[i])
	}
	w.StartRun()
	t.Cleanup(w.EndRun)
	if err := w.AdvanceTo(2); err != nil {
		t.Fatal(err)
	}
	return w, ids, units, log
}

func data(src, dst netstack.NodeID) *netstack.Packet {
	return &netstack.Packet{Kind: netstack.KindData, Data: true, Src: src, Dst: dst, TTL: 8, Size: 64}
}

func TestFlushBuffersSendsInDestinationOrder(t *testing.T) {
	for round := 0; round < rounds; round++ {
		// six vehicles under one RSU, each with a packet waiting
		vehPos := make([]geom.Vec2, 6)
		for i := range vehPos {
			vehPos[i] = geom.V(float64(20*i), 10)
		}
		w, ids, units, log := rsuWorld(t, vehPos, []geom.Vec2{geom.V(50, 0)})
		u := units[0]
		for i := len(ids) - 1; i >= 0; i-- {
			u.buffer(data(u.API.Self(), ids[i]))
		}
		u.flushBuffers()
		if err := w.AdvanceTo(2.2); err != nil { // before the RSU's own next sweep
			t.Fatal(err)
		}
		var got []netstack.NodeID
		for _, h := range *log {
			got = append(got, h.At)
		}
		if !slices.Equal(got, ids) {
			t.Fatalf("round %d: packets left the RSU for %v, want ascending destination IDs %v", round, got, ids)
		}
	}
}

func TestHandoverTransfersInRSUOrder(t *testing.T) {
	for round := 0; round < rounds; round++ {
		// one vehicle under the last of seven RSUs; the other six, far
		// away, each hold a packet for it
		rsuPos := make([]geom.Vec2, 7)
		for i := range rsuPos {
			rsuPos[i] = geom.V(float64(1000*(6-i)), 0)
		}
		w, ids, units, log := rsuWorld(t, []geom.Vec2{geom.V(10, 10)}, rsuPos)
		veh, owner := ids[0], units[6]
		var want []netstack.NodeID
		for _, u := range units[:6] {
			u.buffer(data(u.API.Self(), veh))
			want = append(want, u.API.Self())
		}
		owner.backbone.lastSeen[veh] = units[0].API.Self()
		owner.backbone.noteVehicle(veh, owner.API.Self())
		if err := w.AdvanceTo(2.2); err != nil {
			t.Fatal(err)
		}
		var got []netstack.NodeID
		for _, h := range *log {
			got = append(got, h.Src)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: handed-over packets arrived from RSUs %v, want ascending %v", round, got, want)
		}
	}
}

func TestNearestRSUTieGoesToLowestID(t *testing.T) {
	// six RSUs exactly 300 m from the origin
	rsuPos := []geom.Vec2{
		geom.V(300, 0), geom.V(-300, 0), geom.V(0, 300), geom.V(0, -300), geom.V(180, 240), geom.V(-180, -240),
	}
	_, _, units, _ := rsuWorld(t, nil, rsuPos)
	b := units[0].backbone
	for round := 0; round < rounds; round++ {
		if got, ok := b.rsuFor(99, geom.V(0, 0), true); !ok || got != units[0] {
			t.Fatalf("round %d: tie went to RSU node %d, want the lowest ID %d", round, got.API.Self(), units[0].API.Self())
		}
	}
}
