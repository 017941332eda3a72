package routing_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// stubFlooder is the smallest protocol on routing.Flooder: its rebroadcast
// rule and its outbound hook are whatever the test says, and it counts how
// often each was asked.
type stubFlooder struct {
	routing.Flooder
	relay, keep     bool
	asked, outbound int
	origins         int // outbound calls with origin set
}

func (s *stubFlooder) Name() string { return "stub" }

// floodWorld runs the stub on the node under test and one neighbor in
// range, and has started: packets can be handed to the first stub directly.
func floodWorld(t *testing.T) (*netstack.World, []netstack.NodeID, *stubFlooder) {
	t.Helper()
	var stubs []*stubFlooder
	w, ids := routetest.World(t, 1, pair(), func() netstack.Router {
		s := &stubFlooder{relay: true}
		s.Init(s.Name(), func(*netstack.Packet) bool {
			s.asked++
			return s.relay
		}, func(_ *netstack.Packet, origin bool) bool {
			s.outbound++
			if origin {
				s.origins++
			}
			return s.keep
		})
		stubs = append(stubs, s)
		return s
	})
	w.StartRun()
	t.Cleanup(w.EndRun)
	if err := w.AdvanceTo(0.5); err != nil {
		t.Fatal(err)
	}
	return w, ids, stubs[0]
}

// flooded is a copy of a flooded packet from a node outside the world.
func flooded(uid uint64, dst netstack.NodeID, ttl int) netstack.Packet {
	return netstack.Packet{UID: uid, Kind: netstack.KindData, Data: true, Proto: "stub", Src: 9, Dst: dst, TTL: ttl, Size: 64}
}

func data(uid uint64, dst netstack.NodeID, ttl int) *netstack.Packet {
	pkt := flooded(uid, dst, ttl)
	return &pkt
}

// released reports whether the stack's pool took the packet back: Release
// scrubs it, a packet waiting in the MAC queue keeps its fields.
func released(pkt *netstack.Packet) bool { return *pkt == (netstack.Packet{}) }

func TestFloodedPacketFate(t *testing.T) {
	const elsewhere = netstack.NodeID(8)
	cases := []struct {
		name  string
		kind  string
		dst   netstack.NodeID // 0 is the node under test
		ttl   int
		relay bool
		// what one first copy must cost
		delivered, sent, dropped, asked int
	}{
		{"first copy for someone else: rebroadcast", netstack.KindData, elsewhere, 4, true, 0, 1, 0, 1},
		{"addressed destination delivers and stays silent", netstack.KindData, 0, 4, true, 1, 0, 0, 0},
		{"broadcast destination delivers and rebroadcasts", netstack.KindData, netstack.Broadcast, 4, true, 1, 1, 0, 1},
		{"relay says no: released, and no drop counted", netstack.KindData, elsewhere, 4, false, 0, 0, 0, 1},
		{"relay says no to a broadcast: still delivered", netstack.KindData, netstack.Broadcast, 4, false, 1, 0, 0, 1},
		{"out of hops: one drop", netstack.KindData, elsewhere, 1, true, 0, 0, 1, 1},
		{"relay says no before the hop is spent", netstack.KindData, elsewhere, 1, false, 0, 0, 0, 1},
		{"not data: released unread", netstack.KindRREQ, 0, 4, true, 0, 0, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, _, s := floodWorld(t)
			s.relay = tc.relay
			c := w.Collector()
			pkt := data(7, tc.dst, tc.ttl)
			pkt.Kind = tc.kind
			pkt.Data = tc.kind == netstack.KindData
			s.HandlePacket(pkt)
			if c.DataDelivered != tc.delivered || c.DataForwarded != tc.sent || c.DataDropped != tc.dropped || s.asked != tc.asked {
				t.Fatalf("delivered %d, sent %d, dropped %d, relay asked %d times; want %d, %d, %d, %d",
					c.DataDelivered, c.DataForwarded, c.DataDropped, s.asked, tc.delivered, tc.sent, tc.dropped, tc.asked)
			}
			if sent := tc.sent == 1; released(pkt) == sent {
				t.Fatalf("sent %v, but released %v: a copy is either rebroadcast or handed back", sent, released(pkt))
			}
			if tc.sent == 1 && (pkt.TTL != tc.ttl-1 || s.outbound != 1 || s.origins != 0) {
				t.Fatalf("rebroadcast with TTL %d of %d after %d outbound calls (%d as origin); want one hop spent, one call, not as origin",
					pkt.TTL, tc.ttl, s.outbound, s.origins)
			}
			if tc.kind != netstack.KindData {
				return
			}
			// the second copy of anything that was data is a duplicate
			dup := data(7, tc.dst, tc.ttl)
			s.HandlePacket(dup)
			if !released(dup) || c.DataDelivered != tc.delivered || c.DataForwarded != tc.sent || c.DataDropped != tc.dropped || s.asked != tc.asked {
				t.Fatalf("duplicate: released %v, delivered %d, sent %d, dropped %d, relay asked %d times; want it released and nothing else",
					released(dup), c.DataDelivered, c.DataForwarded, c.DataDropped, s.asked)
			}
		})
	}
}

func TestFloodOrigin(t *testing.T) {
	w, ids, s := floodWorld(t)
	c := w.Collector()
	s.relay = false // the source transmits whatever its rebroadcast rule says

	s.Originate(ids[0], 64)
	if c.DataDelivered != 1 || c.DataForwarded != 0 || s.outbound != 0 {
		t.Fatalf("self-addressed: delivered %d, sent %d, outbound asked %d times; want it delivered here and never sent",
			c.DataDelivered, c.DataForwarded, s.outbound)
	}

	s.Originate(ids[1], 64)
	if c.DataForwarded != 1 || s.origins != 1 || s.asked != 0 {
		t.Fatalf("sent %d, outbound as origin %d times, relay asked %d times; want 1, 1, 0", c.DataForwarded, s.origins, s.asked)
	}

	s.relay, s.keep = true, true // custody: the protocol transmits, the core must not
	s.Originate(ids[1], 64)
	pkt := data(7, 8, 4)
	s.HandlePacket(pkt)
	if c.DataForwarded != 1 || s.outbound != 3 || released(pkt) {
		t.Fatalf("in custody: sent %d, outbound asked %d times, released %v; want the core to send and release nothing",
			c.DataForwarded, s.outbound, released(pkt))
	}

	if err := w.AdvanceTo(2); err != nil {
		t.Fatal(err)
	}
	// ids[1] heard the one transmission; its echo came back as a duplicate
	if c.DataDelivered != 2 || c.DataForwarded != 1 {
		t.Fatalf("delivered %d, sent %d; want the neighbor to deliver and, addressed, not rebroadcast", c.DataDelivered, c.DataForwarded)
	}
	if s.NeedsBeacons() {
		t.Fatal("a flooder keeps no neighbor state")
	}
}

// The core adds nothing per packet to what the stack allocates: a first
// copy travels HandlePacket → MAC → the neighbor's HandlePacket → MAC → back
// here as a duplicate, all on pooled packets.
func TestFloodPathsAllocFree(t *testing.T) {
	w, _, s := floodWorld(t)
	const runs = 200
	pkts := make([]netstack.Packet, 1+2*(runs+1)) // AllocsPerRun warms up with one extra call
	next, now := 0, 0.5
	copyOf := func(uid uint64) *netstack.Packet {
		pkt := &pkts[next]
		next++
		*pkt = flooded(uid, 8, 4)
		return pkt
	}
	s.HandlePacket(copyOf(1))
	if got := testing.AllocsPerRun(runs, func() { s.HandlePacket(copyOf(1)) }); got != 0 {
		t.Fatalf("duplicate path allocates %.1f objects per packet, want 0", got)
	}
	uid := uint64(100)
	if got := testing.AllocsPerRun(runs, func() {
		uid++
		s.HandlePacket(copyOf(uid))
		now += 0.05
		if err := w.AdvanceTo(now); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("rebroadcast path allocates %.1f objects per packet, want 0", got)
	}
	const firsts = 1 + (runs + 1) // the packet the duplicates were copies of, and every rebroadcast run
	if c := w.Collector(); c.DataForwarded != 2*firsts {
		t.Fatalf("%d transmissions for %d first copies, want each rebroadcast here and once by the neighbor", c.DataForwarded, firsts)
	}
}
