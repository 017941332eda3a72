package niude

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/linkstate"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// TestSurvivalFloorDropsTheCopy: two relays hear the same request from a
// parked sender. One races away from it at 45 m/s, so its link is still up
// but survives the 4 s horizon with a probability above 0 and below
// minSurvival: it scores the link 0 and does not forward the copy. The
// other is parked too, and forwards it.
func TestSurvivalFloorDropsTheCopy(t *testing.T) {
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0)},
		{Pos: geom.V(100, 0), Vel: geom.V(45, 0)},
		{Pos: geom.V(-100, 0)},
	}
	var routers []*Router
	factory := New()
	w, ids := routetest.World(t, 1, vehicles, func() netstack.Router {
		r := factory().(*Router)
		routers = append(routers, r)
		return r
	})
	w.StartRun()
	if err := w.AdvanceTo(2.05); err != nil { // everyone has beaconed twice
		t.Fatal(err)
	}
	sender, racing, parked := ids[0], routers[1], routers[2]

	ls, ok := racing.API.LinkState(sender)
	if !ok {
		t.Fatal("the racing relay has not heard the sender")
	}
	obs := linkstate.Observer{Pos: racing.API.Pos(), Vel: racing.API.Vel(), Now: racing.API.Now()}
	p := linkstate.Survival(obs, ls, speedSigma, racing.API.RangeEstimate(), 600, horizon)
	if !(p > 0 && p < minSurvival) {
		t.Fatalf("survival %v: the world does not put the link under the floor", p)
	}
	if got := linkAvailability(racing.API, ls); got != 0 {
		t.Fatalf("availability %v under the floor, want 0", got)
	}

	sent := func() int { return w.Collector().Control[netstack.KindRREQ] }
	request := func() *netstack.Packet {
		return &netstack.Packet{Kind: netstack.KindRREQ, Src: sender, Dst: netstack.Broadcast, From: sender,
			TTL: 8, Hops: 1, Size: 56, Payload: &routing.Request[path]{Origin: sender, ReqID: 1, Target: ids[2] + 1, Path: rule.Start}}
	}
	before := sent()
	racing.HandlePacket(request())
	if sent() != before {
		t.Fatal("the racing relay forwarded a copy over a link under the floor")
	}
	parked.HandlePacket(request())
	if sent() != before+1 {
		t.Fatalf("the parked relay sent %d requests, want 1", sent()-before)
	}
}

// TestGatedCopyStillCountsAsSeen: a relay records a request copy as seen
// before its survival floor drops it. The racing relay gets the first copy
// of a discovery over the link under the floor, then a second copy of the
// same discovery from a companion driving beside it: that copy is a
// duplicate, and is not forwarded either. A copy of a new discovery from
// the companion is.
func TestGatedCopyStillCountsAsSeen(t *testing.T) {
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0)},
		{Pos: geom.V(100, 0), Vel: geom.V(45, 0)},
		{Pos: geom.V(60, 5), Vel: geom.V(45, 0)},
	}
	var routers []*Router
	factory := New()
	w, ids := routetest.World(t, 1, vehicles, func() netstack.Router {
		r := factory().(*Router)
		routers = append(routers, r)
		return r
	})
	w.StartRun()
	if err := w.AdvanceTo(2.05); err != nil { // everyone has beaconed twice
		t.Fatal(err)
	}
	sender, racing, companion := ids[0], routers[1], ids[2]
	for _, id := range []netstack.NodeID{sender, companion} {
		if _, ok := racing.API.LinkState(id); !ok {
			t.Fatalf("the racing relay has not heard node %d", id)
		}
	}

	sent := func() int { return w.Collector().Control[netstack.KindRREQ] }
	request := func(from netstack.NodeID, hops int, reqID uint64) *netstack.Packet {
		return &netstack.Packet{Kind: netstack.KindRREQ, Src: from, Dst: netstack.Broadcast, From: from,
			TTL: 8, Hops: hops, Size: 56, Payload: &routing.Request[path]{Origin: sender, ReqID: reqID, Target: ids[2] + 1, Path: rule.Start}}
	}
	before := sent()
	racing.HandlePacket(request(sender, 1, 1))
	if sent() != before {
		t.Fatal("the racing relay forwarded a copy over a link under the floor")
	}
	racing.HandlePacket(request(companion, 2, 1))
	if sent() != before {
		t.Fatal("the racing relay forwarded a second copy of a discovery it had dropped")
	}
	racing.HandlePacket(request(companion, 2, 2))
	if sent() != before+1 {
		t.Fatalf("the racing relay sent %d copies of a new discovery from its companion, want 1", sent()-before)
	}
}

// A warm relay allocates nothing: the record it sends comes back from its
// frame, and a copy dropped at the TTL takes no record.
func TestWarmRelayAllocs(t *testing.T) {
	var routers []*Router
	factory := New()
	w, ids := routetest.World(t, 1, routetest.Chain(2, 100, 0), func() netstack.Router {
		r := factory().(*Router)
		routers = append(routers, r)
		return r
	})
	w.StartRun()
	if err := w.AdvanceTo(2.05); err != nil {
		t.Fatal(err)
	}
	relay := routers[1]
	c := routetest.RelayAllocs(w, relay, relay.API, ids[0],
		routing.Request[path]{Origin: ids[0], Target: ids[1] + 1, Path: rule.Start})
	if c.Allocs != 0 || c.Sent != 101 || c.Astray != 0 || c.Err != nil {
		t.Fatalf("%+v: want 0 objects, all 101 requests sent, every dropped copy back in the pool", c)
	}
}
