package routing_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// stubCarrier is the smallest protocol on routing.Carrier: both choices are
// whatever the test says, and it counts how often it was asked.
type stubCarrier struct {
	routing.Carrier
	route, retry    func(*netstack.Packet) routing.Hop
	routed, retried int
	watch           netstack.NodeID
	knewWatched     bool // HasNeighbor(watch) at the last route call
}

func always(h routing.Hop) func(*netstack.Packet) routing.Hop {
	return func(*netstack.Packet) routing.Hop { return h }
}

// stubWorld runs the stub on every vehicle; route and retry are the
// verdicts of the first one, the node under test.
func stubWorld(t *testing.T, vehicles []routetest.Vehicle, timeout float64,
	route, retry func(*netstack.Packet) routing.Hop) (*netstack.World, []netstack.NodeID, *stubCarrier) {
	t.Helper()
	var stubs []*stubCarrier
	w, ids := routetest.World(t, 1, vehicles, func() netstack.Router {
		s := &stubCarrier{route: route, retry: retry}
		s.Init(timeout, s)
		stubs = append(stubs, s)
		return s
	})
	return w, ids, stubs[0]
}

func (s *stubCarrier) NextHop(pkt *netstack.Packet) routing.Hop {
	s.routed++
	s.knewWatched = s.API.HasNeighbor(s.watch)
	return s.route(pkt)
}

func (s *stubCarrier) Retry(pkt *netstack.Packet) routing.Hop {
	s.retried++
	return s.retry(pkt)
}

// pair is the node under test and one neighbor in range.
func pair() []routetest.Vehicle {
	return []routetest.Vehicle{{Pos: geom.V(0, 0)}, {Pos: geom.V(100, 0)}}
}

func TestCarriedPacketFate(t *testing.T) {
	const neighbor = netstack.NodeID(1)
	cases := []struct {
		name    string
		timeout float64
		retry   routing.Hop
		// after the first sweep (t = 2), and at the end (t = 8)
		carried, dropped       int
		carriedEnd, droppedEnd int
		delivered              int
	}{
		{"carry verdict keeps until the timeout drops, once", 3, routing.Carry(), 1, 0, 0, 1, 0},
		{"drop verdict drops at the first sweep", 3, routing.Drop(), 0, 1, 0, 1, 0},
		{"forward verdict sends", 3, routing.Forward(neighbor), 0, 0, 0, 0, 1},
		{"past the timeout: dropped without being offered again", 0.2, routing.Forward(neighbor), 0, 1, 0, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, ids, s := stubWorld(t, pair(), tc.timeout, always(routing.Carry()), always(tc.retry))
			w.AddFlow(ids[0], ids[1], 1.2, 1, 1, 64) // one packet, carried from t = 1.2
			w.StartRun()
			if err := w.AdvanceTo(2); err != nil { // first sweep is in [0.5, 0.6), the third in [1.5, 1.6)
				t.Fatal(err)
			}
			c := w.Collector()
			if s.Carried() != tc.carried || c.DataDropped != tc.dropped {
				t.Fatalf("after one sweep: carried %d, dropped %d; want %d, %d", s.Carried(), c.DataDropped, tc.carried, tc.dropped)
			}
			if err := w.AdvanceTo(8); err != nil {
				t.Fatal(err)
			}
			if s.Carried() != tc.carriedEnd || c.DataDropped != tc.droppedEnd || c.DataDelivered != tc.delivered {
				t.Fatalf("at the end: carried %d, dropped %d, delivered %d; want %d, %d, %d",
					s.Carried(), c.DataDropped, c.DataDelivered, tc.carriedEnd, tc.droppedEnd, tc.delivered)
			}
			if tc.timeout < 0.5 && s.retried != 0 {
				t.Fatalf("a packet past its timeout was retried %d times", s.retried)
			}
		})
	}
}

func TestSendFailedForgetsThenReroutes(t *testing.T) {
	w, ids, s := stubWorld(t, pair(), 100, always(routing.Carry()), always(routing.Carry()))
	s.watch = ids[1]
	w.StartRun()
	if err := w.AdvanceTo(2); err != nil {
		t.Fatal(err)
	}
	if !s.API.HasNeighbor(ids[1]) {
		t.Fatal("the neighbor's beacons were not heard")
	}
	c := w.Collector()

	s.OnSendFailed(&netstack.Packet{Kind: netstack.KindData, Dst: 9, TTL: 2}, ids[1])
	if s.routed != 1 || s.knewWatched {
		t.Fatalf("routed %d times, neighbor still known while routing: %v; want the neighbor forgotten first", s.routed, s.knewWatched)
	}
	if s.Carried() != 1 || c.DataDropped != 0 {
		t.Fatalf("carried %d, dropped %d; want the re-routed packet carried", s.Carried(), c.DataDropped)
	}

	s.OnSendFailed(&netstack.Packet{Kind: netstack.KindData, Dst: 9, TTL: 1}, ids[1])
	if s.routed != 1 || s.Carried() != 1 || c.DataDropped != 1 {
		t.Fatalf("out of TTL: routed %d, carried %d, dropped %d; want it dropped, not routed or carried",
			s.routed, s.Carried(), c.DataDropped)
	}
}

func TestNonDataIsIgnored(t *testing.T) {
	w, ids, s := stubWorld(t, pair(), 100, always(routing.Drop()), always(routing.Drop()))
	if err := w.Run(2); err != nil {
		t.Fatal(err)
	}
	s.HandlePacket(&netstack.Packet{Kind: netstack.KindRREQ, Dst: ids[0], TTL: 4})
	s.HandlePacket(&netstack.Packet{Kind: netstack.KindRREQ, Dst: 9, TTL: 4})
	s.OnSendFailed(&netstack.Packet{Kind: netstack.KindRREP, Dst: 9, TTL: 4}, ids[1])
	c := w.Collector()
	if s.routed != 0 || s.Carried() != 0 || c.DataDropped != 0 || c.DataDelivered != 0 {
		t.Fatalf("control packets: routed %d, carried %d, dropped %d, delivered %d; want none",
			s.routed, s.Carried(), c.DataDropped, c.DataDelivered)
	}
	if s.API.HasNeighbor(ids[1]) {
		t.Fatal("a failed unicast of any kind must forget the neighbor")
	}
}

// Attaching a carrier arms its sweep with the core itself as the job, so it
// allocates nothing.
func TestCarrierAttachAllocs(t *testing.T) {
	_, _, s := stubWorld(t, pair(), 10, always(routing.Carry()), always(routing.Carry()))
	if got := testing.AllocsPerRun(100, func() { s.Attach(s.API) }); got != 0 {
		t.Fatalf("an attach allocates %.1f objects, want 0", got)
	}
}
