package netstack

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mobility"
)

// lineTracks builds n constant-velocity tracks spaced gap meters apart on
// the x axis, all moving east at speed.
func lineTracks(n int, gap, speed float64) []mobility.Track {
	tracks := make([]mobility.Track, n)
	for i := range tracks {
		x0 := float64(i) * gap
		tracks[i] = mobility.Track{
			ID: mobility.VehicleID(i),
			Waypoints: []mobility.Waypoint{
				{T: 0, Pos: geom.V(x0, 0), Speed: speed},
				{T: 1000, Pos: geom.V(x0+speed*1000, 0), Speed: speed},
			},
		}
	}
	return tracks
}

// echoRouter delivers data addressed to it and records calls.
type echoRouter struct {
	Base
	got      []*Packet
	beacons  []NodeID
	expired  []NodeID
	failures []NodeID
}

func (e *echoRouter) Name() string { return "echo" }

func (e *echoRouter) HandlePacket(pkt *Packet) {
	e.got = append(e.got, pkt)
	if pkt.Dst == e.API.Self() {
		e.API.Deliver(pkt)
	}
}

func (e *echoRouter) Originate(dst NodeID, size int) {
	pkt := &Packet{
		UID: e.API.NewUID(), Kind: KindData, Data: true, Proto: "echo",
		Src: e.API.Self(), Dst: dst, TTL: 8, Size: size, Created: e.API.Now(),
	}
	e.API.Send(dst, pkt)
}

func (e *echoRouter) OnBeacon(from NodeID, _ NodeKind)  { e.beacons = append(e.beacons, from) }
func (e *echoRouter) OnNeighborExpired(id NodeID)       { e.expired = append(e.expired, id) }
func (e *echoRouter) OnSendFailed(p *Packet, to NodeID) { e.failures = append(e.failures, to) }

func newTestWorld(t *testing.T, n int, gap float64) (*World, []*echoRouter, []NodeID) {
	t.Helper()
	model := mobility.NewPlayback(lineTracks(n, gap, 0))
	w := NewWorld(Config{Seed: 1}, model)
	var routers []*echoRouter
	ids := w.AddVehicleNodes(func() Router {
		r := &echoRouter{}
		routers = append(routers, r)
		return r
	})
	return w, routers, ids
}

func TestBeaconingPopulatesNeighborTables(t *testing.T) {
	w, routers, ids := newTestWorld(t, 3, 100)
	if err := w.Run(3); err != nil {
		t.Fatal(err)
	}
	// node 1 must see both 0 and 2
	api := routers[1].API
	if got := len(api.Neighbors()); got != 2 {
		t.Fatalf("node 1 neighbors = %d, want 2", got)
	}
	nb, ok := api.LinkState(ids[0])
	if !ok {
		t.Fatal("node 0 missing from table")
	}
	if nb.Kind != Vehicle {
		t.Fatalf("neighbor kind = %v", nb.Kind)
	}
	if nb.Beacons == 0 || nb.RSSI == 0 {
		t.Fatalf("beacon bookkeeping empty: %+v", nb)
	}
	if len(routers[1].beacons) == 0 {
		t.Fatal("OnBeacon never fired")
	}
}

func TestNeighborExpiry(t *testing.T) {
	// two nodes move apart: after separation the neighbor entry must
	// expire and the router hook fire
	a := mobility.Track{ID: 0, Waypoints: []mobility.Waypoint{
		{T: 0, Pos: geom.V(0, 0), Speed: 0},
		{T: 1000, Pos: geom.V(0, 0), Speed: 0},
	}}
	b := mobility.Track{ID: 1, Waypoints: []mobility.Waypoint{
		{T: 0, Pos: geom.V(100, 0), Speed: 40},
		{T: 1000, Pos: geom.V(100+40*1000, 0), Speed: 40},
	}}
	model := mobility.NewPlayback([]mobility.Track{a, b})
	w := NewWorld(Config{Seed: 1}, model)
	var routers []*echoRouter
	w.AddVehicleNodes(func() Router {
		r := &echoRouter{}
		routers = append(routers, r)
		return r
	})
	if err := w.Run(15); err != nil {
		t.Fatal(err)
	}
	if len(routers[0].expired) == 0 {
		t.Fatal("neighbor expiry never fired for the departing node")
	}
	if routers[0].API.HasNeighbor(1) {
		t.Fatal("departed node still in the table")
	}
}

func TestFlowDeliveryAndMetrics(t *testing.T) {
	w, _, ids := newTestWorld(t, 2, 100)
	w.AddFlow(ids[0], ids[1], 1, 0.5, 5, 256)
	if err := w.Run(5); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataSent != 5 {
		t.Fatalf("sent = %d", c.DataSent)
	}
	if c.DataDelivered != 5 {
		t.Fatalf("delivered = %d", c.DataDelivered)
	}
	if c.MeanDelay() <= 0 || c.MeanDelay() > 0.1 {
		t.Fatalf("mean delay = %v", c.MeanDelay())
	}
}

func TestUnicastFilteredAtDispatch(t *testing.T) {
	w, routers, ids := newTestWorld(t, 3, 50) // all in range of each other
	w.AddFlow(ids[0], ids[1], 1, 1, 1, 256)
	if err := w.Run(3); err != nil {
		t.Fatal(err)
	}
	// node 2 must not see the unicast data frame
	for _, pkt := range routers[2].got {
		if pkt.Kind == KindData {
			t.Fatal("third party received a unicast data frame")
		}
	}
	if len(routers[1].got) == 0 {
		t.Fatal("addressee got nothing")
	}
}

func TestDispatchClonesPerReceiver(t *testing.T) {
	w, routers, ids := newTestWorld(t, 3, 50)
	// a broadcast data packet: every receiver mutates its own clone
	w.Engine().At(1, func() {
		n := w.nodeByID(ids[0])
		pkt := &Packet{
			UID: 99, Kind: KindData, Data: true, Proto: "echo",
			Src: ids[0], Dst: Broadcast, TTL: 8, Size: 64, Created: w.eng.Now(),
		}
		w.sendFrame(n, Broadcast, pkt, false)
	})
	if err := w.Run(2); err != nil {
		t.Fatal(err)
	}
	if len(routers[1].got) == 0 || len(routers[2].got) == 0 {
		t.Fatal("broadcast not delivered to both")
	}
	p1 := routers[1].got[0]
	p2 := routers[2].got[0]
	if p1 == p2 {
		t.Fatal("receivers share one packet instance")
	}
	p1.TTL = 1
	if p2.TTL == 1 {
		t.Fatal("mutating one receiver's packet affected the other")
	}
	if p1.Hops != 1 {
		t.Fatalf("hops = %d, want incremented on dispatch", p1.Hops)
	}
}

func TestSetNodeActive(t *testing.T) {
	w, _, ids := newTestWorld(t, 2, 100)
	w.setActive(w.nodeByID(ids[1]), false)
	w.AddFlow(ids[0], ids[1], 1, 0.5, 3, 256)
	if err := w.Run(4); err != nil {
		t.Fatal(err)
	}
	if got := w.Collector().DataDelivered; got != 0 {
		t.Fatalf("disabled node received %d packets", got)
	}
	// reactivate: traffic flows again
	w.setActive(w.nodeByID(ids[1]), true)
	w.AddFlow(ids[0], ids[1], 4.5, 0.5, 3, 256)
	if err := w.Run(8); err != nil {
		t.Fatal(err)
	}
	if got := w.Collector().DataDelivered; got == 0 {
		t.Fatal("reactivated node never received")
	}
}

func TestStaticNodeAndKinds(t *testing.T) {
	model := mobility.NewPlayback(lineTracks(1, 0, 0))
	w := NewWorld(Config{Seed: 1}, model)
	var r echoRouter
	w.AddVehicleNodes(func() Router { return &echoRouter{} })
	id := w.AddStaticNode(RSU, geom.V(50, 0), &r)
	if kind, _ := w.KindOf(id); kind != RSU {
		t.Fatalf("kind = %v", kind)
	}
	if err := w.Run(3); err != nil {
		t.Fatal(err)
	}
	// the vehicle's beacon reached the RSU and vice versa
	if !r.API.HasNeighbor(0) {
		t.Fatal("RSU has no vehicle neighbor")
	}
	if got := len(w.NodeIDs(RSU)); got != 1 {
		t.Fatalf("RSU count = %d", got)
	}
	pos, ok := w.PositionOf(id)
	if !ok || pos != geom.V(50, 0) {
		t.Fatalf("static position = %v", pos)
	}
}

func TestSendFailedPropagates(t *testing.T) {
	w, routers, ids := newTestWorld(t, 2, 100)
	// node 0 unicasts to a node that is far outside radio range
	far := w.AddStaticNode(Vehicle, geom.V(1e6, 0), &echoRouter{})
	w.Engine().At(1, func() {
		n := w.nodeByID(ids[0])
		pkt := &Packet{
			UID: 5, Kind: KindData, Data: true, Proto: "echo",
			Src: ids[0], Dst: far, TTL: 8, Size: 64, Created: 1,
		}
		w.sendFrame(n, far, pkt, false)
	})
	if err := w.Run(3); err != nil {
		t.Fatal(err)
	}
	if len(routers[0].failures) != 1 || routers[0].failures[0] != far {
		t.Fatalf("failures = %v", routers[0].failures)
	}
}

func TestLookupPositionStaleness(t *testing.T) {
	model := mobility.NewPlayback(lineTracks(2, 100, 30))
	w := NewWorld(Config{Seed: 1}, model)
	var routers []*echoRouter
	ids := w.AddVehicleNodes(func() Router {
		r := &echoRouter{}
		routers = append(routers, r)
		return r
	})
	if err := w.Run(2.9); err != nil {
		t.Fatal(err)
	}
	pos, _, ok := routers[0].API.LookupPosition(ids[1])
	if !ok {
		t.Fatal("lookup failed")
	}
	truth, _ := w.PositionOf(ids[1])
	// with 1 s staleness and 30 m/s the oracle may lag up to 30 m but not
	// more than ~45
	lag := truth.Dist(pos)
	if lag > 45 {
		t.Fatalf("oracle lag = %v m", lag)
	}
}

func TestPacketCloneAndExpired(t *testing.T) {
	p := &Packet{UID: 1, TTL: 1, Payload: "shared"}
	c := p.Clone()
	if c == p || c.UID != 1 {
		t.Fatal("clone wrong")
	}
	c.TTL = 0
	if p.TTL != 1 {
		t.Fatal("clone shares header")
	}
	if !c.Expired() || p.Expired() {
		t.Fatal("Expired wrong")
	}
	if p.String() == "" {
		t.Fatal("String empty")
	}
}

func TestNodeKindString(t *testing.T) {
	for kind, want := range map[NodeKind]string{
		Vehicle: "vehicle", RSU: "rsu", BusNode: "bus", NodeKind(0): "unknown",
	} {
		if kind.String() != want {
			t.Errorf("%d.String() = %q", kind, kind.String())
		}
	}
}
