package routing_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/core"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/routing/abedi"
	"github.com/vanetlab/relroute/internal/routing/aodv"
	"github.com/vanetlab/relroute/internal/routing/niude"
	"github.com/vanetlab/relroute/internal/routing/pbr"
	"github.com/vanetlab/relroute/internal/routing/routetest"
	"github.com/vanetlab/relroute/internal/routing/taleb"
)

// tableDriven is every router built on routing.OnDemand: the properties
// below belong to the shared loop, so each must hold for all of them.
var tableDriven = []struct {
	name    string
	factory netstack.RouterFactory
}{
	{"AODV", aodv.New()},
	{"PBR", pbr.New()},
	{"Taleb", taleb.New()},
	{"Abedi", abedi.New()},
	{"NiuDe", niude.New()},
}

// onDemand is the part of the embedded core the tests reach into.
type onDemand interface {
	netstack.Router
	Table() *routing.Table
	MergeReverse(routing.Route)
	Relay(pkt *netstack.Packet, dst netstack.NodeID)
	Rebroadcast(pkt *netstack.Packet, delayed bool, delay float64)
}

// apiOf is the API a table-driven router was attached to.
func apiOf(r onDemand) *netstack.API {
	switch r := r.(type) {
	case *aodv.Router:
		return r.API
	case *pbr.Router:
		return r.API
	case *taleb.Router:
		return r.API
	case *abedi.Router:
		return r.API
	case *niude.Router:
		return r.API
	}
	panic("not a table-driven router")
}

// capture wraps a factory so the test can reach the routers a world built.
func capture(factory netstack.RouterFactory, into *[]onDemand) netstack.RouterFactory {
	return func() netstack.Router {
		r := factory().(onDemand)
		*into = append(*into, r)
		return r
	}
}

// outOfReach is a source and a destination no radio connects.
func outOfReach() []routetest.Vehicle {
	return []routetest.Vehicle{{Pos: geom.V(0, 0)}, {Pos: geom.V(5000, 0)}}
}

func TestRetryBudgetThenQueueDropped(t *testing.T) {
	for _, tc := range tableDriven {
		t.Run(tc.name, func(t *testing.T) {
			w, ids := routetest.World(t, 1, outOfReach(), tc.factory)
			w.AddFlow(ids[0], ids[1], 1, 0.1, 3, 256)
			if err := w.Run(8); err != nil { // three timeouts of at most 1.2 s, with room
				t.Fatal(err)
			}
			c := w.Collector()
			if c.RouteDiscoveries != 3 || c.Control[netstack.KindRREQ] != 3 {
				t.Errorf("discoveries = %d, RREQs sent = %d; want the first flood and exactly 2 re-floods",
					c.RouteDiscoveries, c.Control[netstack.KindRREQ])
			}
			if c.DataSent != 3 || c.DataDropped != 3 || c.DataDelivered != 0 {
				t.Errorf("sent %d, dropped %d, delivered %d; want every queued packet counted as dropped",
					c.DataSent, c.DataDropped, c.DataDelivered)
			}
		})
	}
}

func TestFullQueueDropsEvicted(t *testing.T) {
	for _, tc := range tableDriven {
		t.Run(tc.name, func(t *testing.T) {
			w, ids := routetest.World(t, 1, outOfReach(), tc.factory)
			// 17 packets inside the first discovery round: the queue holds 16
			w.AddFlow(ids[0], ids[1], 1, 0.01, 17, 256)
			w.StartRun()
			if err := w.AdvanceTo(1.5); err != nil {
				t.Fatal(err)
			}
			c := w.Collector()
			if c.DataSent != 17 || c.DataDropped != 1 || c.RouteDiscoveries != 1 {
				t.Fatalf("mid-discovery: sent %d, dropped %d, discoveries %d; want 17, 1 (the evicted packet), 1",
					c.DataSent, c.DataDropped, c.RouteDiscoveries)
			}
			if err := w.AdvanceTo(8); err != nil {
				t.Fatal(err)
			}
			if c.DataDropped != 17 {
				t.Fatalf("after giving up: dropped %d of 17", c.DataDropped)
			}
		})
	}
}

func TestSendFailureInvalidatesEveryRouteViaHop(t *testing.T) {
	for _, tc := range tableDriven {
		t.Run(tc.name, func(t *testing.T) {
			var routers []onDemand
			// 150 m spacing, 250 m range: everything node 0 sends goes through node 1
			w, ids := routetest.World(t, 1, routetest.Chain(4, 150, 20), capture(tc.factory, &routers))
			w.AddFlow(ids[0], ids[3], 2, 0.5, 6, 256)
			w.AddFlow(ids[0], ids[2], 2.2, 0.5, 6, 256)
			if err := w.Run(5); err != nil {
				t.Fatal(err)
			}
			src, now := routers[0], w.Engine().Now()
			for _, dst := range ids[2:] {
				if rt, ok := src.Table().Lookup(dst, now); !ok || rt.NextHop != ids[1] {
					t.Fatalf("no route to %d via %d before the failure (ok=%v)", dst, ids[1], ok)
				}
			}
			c := w.Collector()
			breaks, dropped := c.RouteBreaks, c.DataDropped
			src.OnSendFailed(&netstack.Packet{Kind: netstack.KindData, Src: ids[0], Dst: ids[3]}, ids[1])
			for _, dst := range ids[1:] {
				if _, ok := src.Table().Lookup(dst, now); ok {
					t.Errorf("route to %d survived the failure of its next hop", dst)
				}
			}
			if c.RouteBreaks-breaks < 2 {
				t.Errorf("route breaks counted: %d, want at least the 2 routes in use", c.RouteBreaks-breaks)
			}
			if c.DataDropped-dropped != 1 {
				t.Errorf("the failed data packet was counted dropped %d times", c.DataDropped-dropped)
			}
		})
	}
}

func TestWorseReverseRouteNeverReplacesBetter(t *testing.T) {
	const dst = netstack.NodeID(9)
	offers := []struct {
		why      string
		via      netstack.NodeID
		hops     int
		lifetime float64
		wantVia  netstack.NodeID
	}{
		{"first route", 1, 3, 10, 1},
		{"more hops, however long-lived", 2, 4, 99, 1},
		{"equal hops, shorter lifetime", 2, 3, 5, 1},
		{"equal hops, equal lifetime", 2, 3, 10, 1},
		{"equal hops, longer lifetime", 3, 3, 11, 3},
		{"fewer hops, however short-lived", 4, 2, 1, 4},
	}
	for _, tc := range tableDriven {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.factory().(onDemand)
			for _, o := range offers {
				r.MergeReverse(routing.Route{Dst: dst, NextHop: o.via, Hops: o.hops, Lifetime: o.lifetime, Valid: true})
				if rt, _ := r.Table().Get(dst); rt.NextHop != o.wantVia {
					t.Fatalf("%s: route via %d, want %d", o.why, rt.NextHop, o.wantVia)
				}
			}
			// a broken route protects nothing
			r.Table().InvalidateVia(4, nil)
			r.MergeReverse(routing.Route{Dst: dst, NextHop: 5, Hops: 9, Valid: true})
			if rt, _ := r.Table().Get(dst); rt.NextHop != 5 || !rt.Valid {
				t.Fatalf("an invalid route blocked its replacement: %+v", rt)
			}
		})
	}
}

// TestMergeReverseFollowsHopRule draws table states — no entry, an invalid
// one, a valid one — and reverse routes of hop counts within one of the
// entry's and lifetimes including NaN and ±Inf. MergeReverse must replace
// the entry exactly when the rule it documents says so.
func TestMergeReverseFollowsHopRule(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lifetimes := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, 5, 10, 99}
	life := func() float64 { return lifetimes[rng.Intn(len(lifetimes))] }
	r := aodv.New()().(onDemand)
	var fewer int
	for i := 0; i < 20000; i++ {
		dst := netstack.NodeID(i) // a fresh entry each draw
		hops := 1 + rng.Intn(4)
		if state := rng.Intn(3); state > 0 {
			r.Table().Upsert(routing.Route{Dst: dst, NextHop: 1, Hops: hops, Lifetime: life(), Valid: state == 2})
		}
		cur, had := r.Table().Get(dst)
		var before routing.Route
		if had {
			before = *cur
		}
		nr := routing.Route{Dst: dst, NextHop: 2, Hops: max(hops+rng.Intn(3)-1, 0), Lifetime: life(), Valid: true}
		r.MergeReverse(nr)
		after, _ := r.Table().Get(dst)
		// the entry came via 1, the offer via 2
		replace := !had || !before.Valid || nr.Hops < before.Hops || nr.Hops == before.Hops && nr.Lifetime > before.Lifetime
		if replace != (after.NextHop == nr.NextHop) {
			t.Fatalf("draw %d: table had %+v (%v); offered %+v; now %+v, want replaced = %v", i, before, had, nr, *after, replace)
		}
		if had && before.Valid && before.Hops < nr.Hops {
			fewer++
		}
	}
	if fewer < 2000 {
		t.Fatalf("the table held fewer hops on %d draws of 20000: the draws test little", fewer)
	}
}

// A control packet that cannot go on ends here: a relayed reply without a
// route or with its last hop spent, and a request rebroadcast, now or
// delayed, with its last hop spent. Each goes back to the stack's pool at
// once, exactly once (the pool hands it out once, then another packet),
// no data drop is counted for it, and nothing is sent, then or later.
func TestRelayAndRebroadcastDropAtTTL(t *testing.T) {
	for _, tc := range tableDriven {
		t.Run(tc.name, func(t *testing.T) {
			var rs []onDemand
			w, ids := routetest.World(t, 1, routetest.Chain(2, 100, 0), capture(tc.factory, &rs))
			w.StartRun()
			if err := w.AdvanceTo(2); err != nil {
				t.Fatal(err)
			}
			r, c := rs[0], w.Collector()
			api := apiOf(r)
			r.Table().Upsert(routing.Route{Dst: ids[1], NextHop: ids[1], Hops: 1, Expiry: 100, Valid: true})
			// what the four steps could send: beacons go on meanwhile
			sent := func() int { return c.Control[netstack.KindRREQ] + c.Control[netstack.KindRREP] }
			before := sent()
			for _, step := range []struct {
				name string
				pkt  *netstack.Packet
				pass func(*netstack.Packet)
			}{
				{"relay, last hop spent", &netstack.Packet{Kind: netstack.KindRREP, Dst: ids[1], TTL: 1},
					func(p *netstack.Packet) { r.Relay(p, ids[1]) }},
				{"relay without a route", &netstack.Packet{Kind: netstack.KindRREP, Dst: 7, TTL: 4},
					func(p *netstack.Packet) { r.Relay(p, 7) }},
				{"rebroadcast, last hop spent", &netstack.Packet{Kind: netstack.KindRREQ, Dst: netstack.Broadcast, TTL: 1},
					func(p *netstack.Packet) { r.Rebroadcast(p, false, 0) }},
				{"delayed rebroadcast, last hop spent", &netstack.Packet{Kind: netstack.KindRREQ, Dst: netstack.Broadcast, TTL: 1},
					func(p *netstack.Packet) { r.Rebroadcast(p, true, 0.1) }},
			} {
				step.pass(step.pkt)
				if !released(step.pkt) || sent() != before || c.DataDropped != 0 {
					t.Fatalf("%s: back in the pool %v, %d requests and replies sent, %d data drops; want it back, none and none",
						step.name, released(step.pkt), sent()-before, c.DataDropped)
				}
				if first, second := api.NewPacket(), api.NewPacket(); first != step.pkt || second == step.pkt {
					t.Fatalf("%s: the pool did not hand the dropped packet out exactly once", step.name)
				} else {
					api.Release(first)
					api.Release(second)
				}
			}
			if err := w.AdvanceTo(3); err != nil {
				t.Fatal(err)
			}
			if sent() != before {
				t.Fatalf("%d requests and replies sent later; want none", sent()-before)
			}
		})
	}
}

// A delayed rebroadcast allocates nothing: the stack holds the packet until
// its send, in a slot it reuses.
func TestDelayedRebroadcastAllocs(t *testing.T) {
	var rs []onDemand
	w, _ := routetest.World(t, 1, routetest.Chain(1, 0, 0), capture(aodv.New(), &rs))
	w.StartRun()
	now := 1.0
	if err := w.AdvanceTo(now); err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	api := apiOf(r)
	rebroadcast := func() {
		pkt := api.NewPacket()
		*pkt = netstack.Packet{Kind: netstack.KindRREQ, Dst: netstack.Broadcast, TTL: 4, Size: 48}
		r.Rebroadcast(pkt, true, 0.05)
		now += 0.1
		if err := w.AdvanceTo(now); err != nil {
			t.Fatal(err)
		}
	}
	rebroadcast()
	if got := testing.AllocsPerRun(100, rebroadcast); got != 0 {
		t.Fatalf("a delayed rebroadcast allocates %.1f objects, want 0", got)
	}
	if got := w.Collector().Control[netstack.KindRREQ]; got != 102 {
		t.Fatalf("%d requests sent, want the 102 rebroadcast", got)
	}
}

// Data that waited in a discovery's queue longer than the queue holds it
// (10 s) is dropped when the answer comes, and goes back to the stack's
// pool; fresher data, and data that waited exactly 10 s, leaves on the
// route the answer installed. An answer that installed no route drops the
// whole queue.
func TestAnsweredDropsExpiredData(t *testing.T) {
	r := &renewer{}
	r.Init(100, r)
	built := 0
	w, ids := routetest.World(t, 1, outOfReach(), func() netstack.Router {
		if built++; built == 1 {
			return r
		}
		return &renewer{}
	})
	w.StartRun()
	stale := &netstack.Packet{UID: 1, Kind: netstack.KindData, Dst: ids[1], TTL: 8, Created: 1}
	edge := &netstack.Packet{UID: 2, Kind: netstack.KindData, Dst: ids[1], TTL: 8, Created: 2}
	fresh := &netstack.Packet{UID: 3, Kind: netstack.KindData, Dst: ids[1], TTL: 8, Created: 5}
	r.Queue(stale)
	r.Queue(edge)
	r.Queue(fresh)
	if err := w.AdvanceTo(12); err != nil { // the stale packet has waited 11 s, the edge one 10 s, the fresh one 7 s
		t.Fatal(err)
	}
	c := w.Collector()
	if r.asked != 1 || c.DataDropped != 0 {
		t.Fatalf("%d requests, %d drops before the answer; want one request and no drop", r.asked, c.DataDropped)
	}
	r.route = true
	r.Answered(ids[1])
	if c.DataDropped != 1 || !released(stale) || !slices.Equal(r.forwarded, []*netstack.Packet{edge, fresh}) || released(edge) || released(fresh) {
		t.Fatalf("dropped %d, stale packet back in the pool %v, forwarded %d; want the stale one dropped and the other two forwarded in order",
			c.DataDropped, released(stale), len(r.forwarded))
	}
	r.route = false
	unrouted := &netstack.Packet{UID: 4, Kind: netstack.KindData, Dst: ids[1], TTL: 8, Created: 12}
	r.Queue(unrouted)
	r.Answered(ids[1])
	if c.DataDropped != 2 || !released(unrouted) || len(r.forwarded) != 2 {
		t.Fatalf("without a route: dropped %d, back in the pool %v, forwarded %d; want it dropped", c.DataDropped, released(unrouted), len(r.forwarded))
	}
}

// A deadline that finds a route, one installed without an answer reaching
// Answered, ends the discovery and sends the queued data on that route in
// queue order; the discovery it ended asks nothing more.
func TestDeadlineSendsQueuedData(t *testing.T) {
	r := &renewer{}
	r.Init(1, r)
	built := 0
	w, ids := routetest.World(t, 1, outOfReach(), func() netstack.Router {
		if built++; built == 1 {
			return r
		}
		return &renewer{}
	})
	w.StartRun()
	first := &netstack.Packet{UID: 1, Kind: netstack.KindData, Dst: ids[1], TTL: 8}
	second := &netstack.Packet{UID: 2, Kind: netstack.KindData, Dst: ids[1], TTL: 8}
	r.Queue(first)
	r.Queue(second)
	r.route = true // before the deadline at 1 s
	if err := w.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	if r.asked != 1 || !slices.Equal(r.forwarded, []*netstack.Packet{first, second}) {
		t.Fatalf("%d requests, forwarded %d; want the one request and both packets sent at its deadline", r.asked, len(r.forwarded))
	}
	if c := w.Collector(); c.DataDropped != 0 || c.RouteDiscoveries != 1 {
		t.Fatalf("dropped %d, discoveries %d; want none dropped and the one discovery", c.DataDropped, c.RouteDiscoveries)
	}
}

// renewer is the smallest Discovery user: its route is a flag the test
// sets, its request asks nobody, and it counts requests and keeps what it
// forwarded. A request for another destination than ask, once set, fails
// the test.
type renewer struct {
	routing.Discovery
	route     bool
	asked     int
	forwarded []*netstack.Packet
	t         *testing.T
	ask       netstack.NodeID
}

func (r *renewer) HandlePacket(*netstack.Packet) {}

func (r *renewer) Routed(netstack.NodeID) bool { return r.route }

func (r *renewer) Forward(p *netstack.Packet) { r.forwarded = append(r.forwarded, p) }

func (r *renewer) Request(to netstack.NodeID, _ uint64) bool {
	if r.t != nil && to != r.ask {
		r.t.Fatalf("a renewal asked for %d, want %d", to, r.ask)
	}
	r.asked++
	return true
}

// TestRenewBefore arms renewals on a route that is a flag: a route that
// never breaks arms no timer, a life shorter than the margin renews 0.1 s
// on, a long life is capped as a table entry is, and a renewal counts a
// repair and sends a request for its destination only when it found the
// route in use.
func TestRenewBefore(t *testing.T) {
	r := &renewer{t: t}
	r.Init(1, r)
	built := 0
	w, ids := routetest.World(t, 1, outOfReach(), func() netstack.Router {
		if built++; built == 1 {
			return r
		}
		return &renewer{}
	})
	w.StartRun()
	c := w.Collector()
	dst := ids[1]
	r.ask = dst
	step := func(at float64, repairs, asked int) {
		t.Helper()
		if err := w.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
		if int(c.RouteRepairs) != repairs || r.asked != asked {
			t.Fatalf("at %g s: %d repairs, %d requests; want %d and %d",
				at, c.RouteRepairs, r.asked, repairs, asked)
		}
	}
	step(1, 0, 0)
	r.route = true
	pending := w.Engine().Pending()
	r.RenewBefore(dst, link.Forever, 1)
	if w.Engine().Pending() != pending {
		t.Fatal("a route that never breaks armed a renewal")
	}
	r.RenewBefore(dst, 0.05, 1) // at 1.1 s
	step(1.099, 0, 0)
	step(1.101, 1, 1)
	step(2.2, 1, 1)            // the route holds: the discovery ends at its deadline
	r.RenewBefore(dst, 500, 1) // capped at 120 s: at 121.2 s
	step(121.199, 1, 1)
	step(121.201, 2, 2)
	step(122.3, 2, 2)
	r.route = false
	r.RenewBefore(dst, 2, 1) // at 123.3 s, no route and no data: nothing
	step(130, 2, 2)
}

// TestRenewStopsWhenRouteOutOfUse drives a destination away from its source
// at 5 m/s, parks it 200 m off for two minutes, then drives it out of range
// at 20 m/s (gone at 152.5 s). The flow's 40 packets end at 20.5 s. Every
// router that predicts a path lifetime renews the route ahead of it while
// the destination is reachable — the route itself stays in use — and once
// the destination is gone and the last discovery has given up, nothing
// renews: the renewal timers still pending find no route and no data.
func TestRenewStopsWhenRouteOutOfUse(t *testing.T) {
	renewing := []struct {
		name    string
		factory netstack.RouterFactory
	}{
		{"PBR", pbr.New()},
		{"Taleb", taleb.New()},
		{"NiuDe", niude.New()},
		{"TBP-SS", core.NewTicketRouter()},
		{"Yan-TBP", core.NewTicketRouter(core.WithMetric(core.MetricExpectedDuration))},
	}
	tracks := []mobility.Track{
		{ID: 0, Waypoints: []mobility.Waypoint{{T: 0, Pos: geom.V(0, 0)}, {T: 1000, Pos: geom.V(0, 0)}}},
		{ID: 1, Waypoints: []mobility.Waypoint{
			{T: 0, Pos: geom.V(50, 0), Speed: 5},
			{T: 30, Pos: geom.V(200, 0)},
			{T: 150, Pos: geom.V(200, 0), Speed: 20},
			{T: 170, Pos: geom.V(600, 0)},
			{T: 1000, Pos: geom.V(600, 0)},
		}},
	}
	for _, tc := range renewing {
		t.Run(tc.name, func(t *testing.T) {
			w := netstack.NewWorld(netstack.Config{Seed: 1}, mobility.NewPlayback(tracks))
			ids := w.AddVehicleNodes(tc.factory)
			w.AddFlow(ids[0], ids[1], 1, 0.5, 40, 256)
			w.StartRun()
			c := w.Collector()
			if err := w.AdvanceTo(150); err != nil {
				t.Fatal(err)
			}
			if c.RouteRepairs == 0 || c.DataDelivered != 40 {
				t.Fatalf("at 150 s, destination in reach: %d renewals, %d of 40 delivered; want renewals and every packet",
					c.RouteRepairs, c.DataDelivered)
			}
			// out of range at 152.5 s; the last discovery has given up well before 170 s
			if err := w.AdvanceTo(170); err != nil {
				t.Fatal(err)
			}
			repairs, discoveries := c.RouteRepairs, c.RouteDiscoveries
			if err := w.AdvanceTo(200); err != nil {
				t.Fatal(err)
			}
			if c.RouteRepairs != repairs || c.RouteDiscoveries != discoveries {
				t.Errorf("170-200 s, destination gone: renewals %d -> %d, discoveries %d -> %d; want both flat",
					repairs, c.RouteRepairs, discoveries, c.RouteDiscoveries)
			}
		})
	}
}

// TestReplyInstallsForwardRouteAlongChain runs one discovery down a chain
// of five vehicles 150 m apart, where only neighbours hear each other. The
// reply installs the forward route at every hop it passes, so once the
// first packet arrives each vehicle before the destination routes to it
// through the next vehicle, with Hops its distance from the destination:
// the hops the reply has travelled, which the packet itself counts.
func TestReplyInstallsForwardRouteAlongChain(t *testing.T) {
	for _, tc := range tableDriven {
		t.Run(tc.name, func(t *testing.T) {
			var routers []onDemand
			w, ids := routetest.World(t, 1, routetest.Chain(5, 150, 20), capture(tc.factory, &routers))
			w.AddFlow(ids[0], ids[4], 3, 1, 1, 256)
			w.StartRun()
			c := w.Collector()
			for at := 3.0; c.DataDelivered == 0; at += 0.01 {
				if at > 8 {
					t.Fatal("the packet was never delivered")
				}
				if err := w.AdvanceTo(at); err != nil {
					t.Fatal(err)
				}
			}
			dst, now := ids[4], w.Engine().Now()
			for i, r := range routers[:4] {
				rt, ok := r.Table().Lookup(dst, now)
				if !ok {
					t.Fatalf("vehicle %d has no route to the destination", i)
				}
				if rt.NextHop != ids[i+1] || rt.Hops != 4-i {
					t.Errorf("vehicle %d routes via %d in %d hops, want via %d in %d", i, rt.NextHop, rt.Hops, ids[i+1], 4-i)
				}
			}
		})
	}
}
