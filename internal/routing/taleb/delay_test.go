package taleb

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// TestCrossGroupRelayWaits hands the same request, from an eastbound
// sender, to an eastbound and a westbound relay: the same-group relay
// rebroadcasts it at once, the cross-group one crossGroupDelay later.
func TestCrossGroupRelayWaits(t *testing.T) {
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0), Vel: geom.V(20, 0)},
		{Pos: geom.V(100, 10), Vel: geom.V(21, 0)},
		{Pos: geom.V(100, -10), Vel: geom.V(-20, 0)},
	}
	var routers []*Router
	factory := New()
	w, ids := routetest.World(t, 1, vehicles, func() netstack.Router {
		r := factory().(*Router)
		routers = append(routers, r)
		return r
	})
	w.StartRun()
	const at = 2.05 // everyone has beaconed twice
	if err := w.AdvanceTo(at); err != nil {
		t.Fatal(err)
	}
	sender, same, cross := ids[0], routers[1], routers[2]
	for _, r := range []*Router{same, cross} {
		if _, ok := r.API.LinkState(sender); !ok {
			t.Fatalf("relay %d has not heard the sender", r.API.Self())
		}
	}

	sent := func() int { return w.Collector().Control[netstack.KindRREQ] }
	request := func() *netstack.Packet {
		return &netstack.Packet{Kind: netstack.KindRREQ, Src: sender, Dst: netstack.Broadcast, From: sender,
			TTL: 8, Hops: 1, Size: 56, Payload: &routing.Request[path]{Origin: sender, ReqID: 1, Target: ids[2] + 1, Path: rule.Start}}
	}
	before := sent()
	same.HandlePacket(request())
	if sent() != before+1 {
		t.Fatalf("the same-group relay sent %d requests at once, want 1", sent()-before)
	}
	cross.HandlePacket(request())
	if sent() != before+1 {
		t.Fatal("the cross-group relay rebroadcast at once")
	}
	if err := w.AdvanceTo(at + crossGroupDelay/2); err != nil {
		t.Fatal(err)
	}
	if sent() != before+1 {
		t.Fatalf("the cross-group relay rebroadcast within %v s", crossGroupDelay/2)
	}
	if err := w.AdvanceTo(at + crossGroupDelay + 0.01); err != nil {
		t.Fatal(err)
	}
	if sent() != before+2 {
		t.Fatalf("%d requests sent after crossGroupDelay, want 2", sent()-before)
	}
}

// A warm relay allocates nothing, at once or after crossGroupDelay: the
// record it sends comes back from its frame, the stack holds a delayed
// send, and a copy dropped at the TTL takes no record.
func TestWarmRelayAllocs(t *testing.T) {
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0), Vel: geom.V(20, 0)},
		{Pos: geom.V(100, 10), Vel: geom.V(21, 0)},
		{Pos: geom.V(100, -10), Vel: geom.V(-20, 0)},
	}
	var routers []*Router
	factory := New()
	w, ids := routetest.World(t, 1, vehicles, func() netstack.Router {
		r := factory().(*Router)
		routers = append(routers, r)
		return r
	})
	w.StartRun()
	if err := w.AdvanceTo(2.05); err != nil {
		t.Fatal(err)
	}
	for _, relay := range routers[1:] {
		c := routetest.RelayAllocs(w, relay, relay.API, ids[0],
			routing.Request[path]{Origin: ids[0], Target: ids[2] + 1, Path: rule.Start})
		if c.Allocs != 0 || c.Sent != 101 || c.Astray != 0 || c.Err != nil {
			t.Fatalf("relay %d: %+v: want 0 objects, all 101 requests sent, every dropped copy back in the pool", relay.API.Self(), c)
		}
	}
}
