package netstack

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mobility"
)

// invariantRouter floods data while asserting stack-level invariants on
// every packet it sees.
type invariantRouter struct {
	Base
	t    *testing.T
	seen map[uint64]int
}

func (r *invariantRouter) NeedsBeacons() bool { return false }

func (r *invariantRouter) Originate(dst NodeID, size int) {
	pkt := &Packet{
		UID: r.API.NewUID(), Kind: KindData,
		Src: r.API.Self(), Dst: dst, TTL: 8, Size: size, Created: r.API.Now(),
	}
	r.API.Send(Broadcast, pkt)
}

func (r *invariantRouter) HandlePacket(pkt *Packet) {
	// invariant: the stack increments hops on every delivery, so a packet
	// can never arrive with Hops == 0 or Hops beyond its TTL budget
	if pkt.Hops <= 0 {
		r.t.Errorf("packet arrived with hops %d", pkt.Hops)
	}
	if pkt.Hops > 9 { // TTL 8 + origination hop
		r.t.Errorf("packet travelled %d hops with TTL budget 8", pkt.Hops)
	}
	// invariant: beacons never reach the router
	if pkt.Kind == KindHello {
		r.t.Error("HELLO beacon leaked into HandlePacket")
	}
	// invariant: created timestamps never exceed now
	if pkt.Created > r.API.Now() {
		r.t.Errorf("packet from the future: created %v now %v", pkt.Created, r.API.Now())
	}
	if r.seen[pkt.UID] == 0 {
		if pkt.Dst == r.API.Self() {
			r.API.Deliver(pkt)
		}
		pkt.TTL--
		if !pkt.Expired() {
			r.API.Send(Broadcast, pkt)
		}
	}
	r.seen[pkt.UID]++
}

func TestStackInvariantsUnderFloodLoad(t *testing.T) {
	tracks := make([]mobility.Track, 24)
	for i := range tracks {
		x0 := float64(i%8) * 90
		y0 := float64(i/8) * 90
		tracks[i] = mobility.Track{
			ID: mobility.VehicleID(i),
			Waypoints: []mobility.Waypoint{
				{T: 0, Pos: geom.V(x0, y0), Speed: 15},
				{T: 1000, Pos: geom.V(x0+15*1000, y0), Speed: 15},
			},
		}
	}
	w := NewWorld(Config{Seed: 42}, mobility.NewPlayback(tracks))
	var routers []*invariantRouter
	ids := w.AddVehicleNodes(func() Router {
		r := &invariantRouter{t: t, seen: make(map[uint64]int)}
		routers = append(routers, r)
		return r
	})
	for f := 0; f < 4; f++ {
		w.AddFlow(ids[f], ids[23-f], 1+float64(f), 0.25, 10, 400)
	}
	if err := w.Run(15); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	// conservation: every sent packet was delivered or is accounted as a
	// duplicate/drop; deliveries never exceed sends
	if c.DataDelivered > c.DataSent {
		t.Fatalf("delivered %d > sent %d", c.DataDelivered, c.DataSent)
	}
	// the MAC resolved every reception exactly once
	resolved := c.MACDelivered + c.MACCollisions + c.MACChannelLoss
	if resolved == 0 {
		t.Fatal("no MAC activity under flood load")
	}
	// no engine leakage: the run ends with bounded pending events (the
	// mobility and location tickers remain armed)
	if w.Engine().Pending() > 64 {
		t.Fatalf("%d events still pending — timer leak", w.Engine().Pending())
	}
}
