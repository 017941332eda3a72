package core

import (
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// TestTicketRouterFactoryObjects pins what a router costs its arriving
// vehicle: the router alone, which is its Discovery's and its Selection's
// hooks itself. The maps of paths, pending data, discoveries in flight and
// open selections are made on first use, so a router that never discovers
// makes none of them.
func TestTicketRouterFactoryObjects(t *testing.T) {
	factory := NewTicketRouter()
	if n := testing.AllocsPerRun(100, func() { factory() }); n != 1 {
		t.Fatalf("a TBP-SS router is %v objects, want 1", n)
	}
}

// TestProbeForwardAllocatesNothing: a relay with one ticket appends itself
// to the probe record it was handed and sends packet and record on, so
// forwarding a probe allocates nothing once the relay's memo is made.
func TestProbeForwardAllocatesNothing(t *testing.T) {
	var routers []*TicketRouter
	factory := NewTicketRouter()
	w, ids := routetest.World(t, 1, routetest.Chain(3, 100, 20), func() netstack.Router {
		r := factory().(*TicketRouter)
		routers = append(routers, r)
		return r
	})
	w.StartRun()
	advance(t, w, 2.05) // everyone has beaconed twice
	origin, relay, target := ids[0], routers[1], ids[2]
	const runs = 100
	// two hundred warm-up forwards fill the relay's MAC queue, after which
	// every send is refused and its packet goes straight back to the pool
	recs := make([]probe, 2*runs+runs+1)
	forward := func() {
		pr := &recs[0]
		recs = recs[1:]
		*pr = probe{Origin: origin, ReqID: 1, Target: target, Tickets: 1, Stability: 60}
		pr.Path = append(pr.buf[:0], origin)
		pkt := relay.API.NewPacket()
		*pkt = netstack.Packet{UID: 1, Kind: netstack.KindProbe, Src: origin, Dst: target,
			From: origin, To: relay.API.Self(), TTL: 32, Hops: 1, Size: 52, Payload: pr}
		relay.handleProbe(pkt)
	}
	sent := w.Collector().Control[netstack.KindProbe]
	for range 2 * runs {
		forward()
	}
	if got := w.Collector().Control[netstack.KindProbe] - sent; got != 2*runs {
		t.Fatalf("the relay sent %d probes for %d forwards", got, 2*runs)
	}
	if n := testing.AllocsPerRun(runs, forward); n != 0 {
		t.Fatalf("a one-share probe forward allocates %v objects, want 0", n)
	}
}

// TestTicketSplitPathsAreTheirOwn splits three tickets at a relay with
// three candidates: the origin reaches only the relay, which reaches three
// vehicles abreast, each of which reaches the target and the other two.
// Each share carries a record of its own, so the target must receive three
// paths that go on from origin and relay each through a different one of
// the three, each ending at the vehicle it came from, loop-free, and
// hopping only between neighbours.
func TestTicketSplitPathsAreTheirOwn(t *testing.T) {
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0)},     // 0 origin
		{Pos: geom.V(200, 0)},   // 1 relay
		{Pos: geom.V(400, -60)}, // 2
		{Pos: geom.V(400, 0)},   // 3
		{Pos: geom.V(400, 60)},  // 4
		{Pos: geom.V(600, 0)},   // 5 target
	}
	for i := range vehicles {
		vehicles[i].Vel = geom.V(20, 0)
	}
	type arrival struct {
		from netstack.NodeID
		path []netstack.NodeID
	}
	var arrived []arrival
	factory := NewTicketRouter()
	w, ids := routetest.World(t, 1, vehicles, func() netstack.Router {
		return probeTap{factory().(*TicketRouter), func(pkt *netstack.Packet, pr *probe) {
			if pr.Target == pkt.To && pr.ReqID == 1 {
				arrived = append(arrived, arrival{pkt.From, pr.Path})
			}
		}}
	})
	w.AddFlow(ids[0], ids[5], 3, 1, 1, 256)
	if err := w.Run(6); err != nil {
		t.Fatal(err)
	}
	if len(arrived) != 3 {
		t.Fatalf("%d probes of the first round reached the target, want 3", len(arrived))
	}
	neighbors := func(a, b netstack.NodeID) bool { return vehicles[a].Pos.Dist(vehicles[b].Pos) <= 250 }
	var via []netstack.NodeID
	for _, a := range arrived {
		p := a.path
		if len(p) < 3 || p[0] != ids[0] || p[1] != ids[1] || p[len(p)-1] != a.from {
			t.Fatalf("a probe from %d arrived with path %v, want origin, relay, …, sender", a.from, p)
		}
		full := append(slices.Clone(p), ids[5])
		for i := 1; i < len(full); i++ {
			if slices.Contains(full[:i], full[i]) || !neighbors(full[i-1], full[i]) {
				t.Fatalf("path %v loops or hops between non-neighbours", full)
			}
		}
		via = append(via, p[2])
	}
	slices.Sort(via)
	if !slices.Equal(via, []netstack.NodeID{2, 3, 4}) {
		t.Fatalf("the shares went via %v, want one each via 2, 3 and 4", via)
	}
}

// probeTap hands every probe a ticket router gets to tap before the router
// handles it.
type probeTap struct {
	*TicketRouter
	tap func(pkt *netstack.Packet, pr *probe)
}

func (p probeTap) HandlePacket(pkt *netstack.Packet) {
	if pr, ok := pkt.Payload.(*probe); ok {
		p.tap(pkt, pr)
	}
	p.TicketRouter.HandlePacket(pkt)
}
