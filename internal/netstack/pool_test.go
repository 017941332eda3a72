package netstack

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mac"
	"github.com/vanetlab/relroute/internal/mobility"
)

// countingRouter counts beacons; it never sends.
type countingRouter struct {
	Base
	beacons int
}

func (r *countingRouter) Name() string              { return "counting" }
func (r *countingRouter) HandlePacket(*Packet)      {}
func (r *countingRouter) Originate(NodeID, int)     {}
func (r *countingRouter) OnBeacon(NodeID, NodeKind) { r.beacons++ }
func (r *countingRouter) NeedsBeacons() bool        { return true }

// A warmed packet pool round-trip must not allocate: getPacket reuses what
// putPacket recycled.
func TestPacketPoolRoundTripAllocFree(t *testing.T) {
	w := NewWorld(Config{Seed: 1}, mobility.NewPlayback(nil))
	// warm: one packet in the free list
	w.putPacket(&Packet{})
	allocs := testing.AllocsPerRun(1000, func() {
		p := w.getPacket()
		p.Kind = KindData
		p.TTL = 8
		w.putPacket(p)
	})
	if allocs != 0 {
		t.Fatalf("packet pool round-trip allocates %.1f objects/op, want 0", allocs)
	}
}

// putPacket must fully scrub the packet so a recycled one carries no state
// from its previous life.
func TestPacketPoolScrubs(t *testing.T) {
	w := NewWorld(Config{Seed: 1}, mobility.NewPlayback(nil))
	p := &Packet{UID: 7, Kind: KindData, Data: true, TTL: 3, Hops: 2, Payload: "stale"}
	w.putPacket(p)
	got := w.getPacket()
	if got != p {
		t.Fatal("pool did not hand back the recycled packet")
	}
	if *got != (Packet{}) {
		t.Fatalf("recycled packet not zeroed: %+v", *got)
	}
}

// Beacon frames must be recycled through the hello free list once the MAC
// reports the frame done, so steady-state beaconing stops allocating
// packets. This exercises the full loop: sendBeacon → MAC → receiver
// dispatch → frame-done hook.
func TestBeaconFramesRecycled(t *testing.T) {
	w := NewWorld(Config{Seed: 1}, mobility.NewPlayback(nil))
	r1 := &countingRouter{}
	r2 := &countingRouter{}
	w.AddStaticNode(RSU, geom.V(0, 0), r1)
	w.AddStaticNode(RSU, geom.V(100, 0), r2)
	// twenty 1 s beacon periods per node
	if err := w.Run(20); err != nil {
		t.Fatal(err)
	}
	if r1.beacons < 10 || r2.beacons < 10 {
		t.Fatalf("beaconing broken: %d/%d beacons seen", r1.beacons, r2.beacons)
	}
	// Each node has at most one beacon in flight at a time, so the free
	// list bounds the total beacon packets ever allocated to ~one per node.
	if got := len(w.helloFree); got == 0 || got > 4 {
		t.Fatalf("hello free list has %d packets after the run, want 1..4 (recycling broken?)", got)
	}
}

// poolFlooder is flood.Router's ownership discipline without the import
// cycle: originate with Send, Release every copy that ends here, rebroadcast
// the first copy with SendFinal. handed, shared by the world's routers,
// collects every packet the stack's pool has handed out.
type poolFlooder struct {
	Base
	seen   map[uint64]bool
	handed map[*Packet]bool
}

func (r *poolFlooder) Name() string       { return "pool-flooder" }
func (r *poolFlooder) NeedsBeacons() bool { return false }

func (r *poolFlooder) Originate(dst NodeID, size int) {
	pkt := &Packet{
		UID: r.API.NewUID(), Kind: KindData, Data: true, Proto: r.Name(),
		Src: r.API.Self(), Dst: dst, TTL: 16, Size: size, Created: r.API.Now(),
	}
	r.seen[pkt.UID] = true
	r.API.Send(Broadcast, pkt)
}

func (r *poolFlooder) HandlePacket(pkt *Packet) {
	r.handed[pkt] = true
	if r.seen[pkt.UID] {
		r.API.Release(pkt)
		return
	}
	r.seen[pkt.UID] = true
	if pkt.Dst == r.API.Self() {
		r.API.Deliver(pkt)
		r.API.Release(pkt)
		return
	}
	if pkt.TTL--; pkt.Expired() {
		r.API.Release(pkt)
		return
	}
	r.API.SendFinal(Broadcast, pkt)
}

// sinkRouter counts the packets it receives and releases every copy, so
// once a run has drained every pool packet is back in the free list.
type sinkRouter struct {
	Base
	got int
}

func (r *sinkRouter) Name() string          { return "sink" }
func (r *sinkRouter) NeedsBeacons() bool    { return false }
func (r *sinkRouter) Originate(NodeID, int) {}
func (r *sinkRouter) HandlePacket(pkt *Packet) {
	r.got++
	r.API.Release(pkt)
}

// checkFreeList is the double-release guard: no packet may sit in the free
// list twice, and each of want must sit in it exactly once. (A packet
// released twice shows up twice unless a reception took one back out, which
// the sinks' own releases undo before the next check.)
func checkFreeList(t *testing.T, w *World, want ...*Packet) {
	t.Helper()
	count := make(map[*Packet]int, len(w.pktFree))
	for _, p := range w.pktFree {
		count[p]++
		if count[p] > 1 {
			t.Fatalf("packet %p is in the free list %d times", p, count[p])
		}
	}
	for i, p := range want {
		if count[p] != 1 {
			t.Fatalf("packet %d of %d is in the free list %d times, want once", i+1, len(want), count[p])
		}
	}
}

// A flood in steady state must stop allocating packets: the rebroadcast
// copy comes back through SendFinal, every other copy through Release, so a
// second identical wave of originations finds the pool warm and makes it
// allocate fewer new packets than the wave originates. (Sent with Send,
// every rebroadcast would keep its copy: ten per origination on this line.)
func TestFloodRebroadcastRecycled(t *testing.T) {
	const nodes, perWave = 12, 10
	w := NewWorld(Config{Seed: 1}, mobility.NewPlayback(lineTracks(nodes, 100, 0)))
	handed := map[*Packet]bool{}
	ids := w.AddVehicleNodes(func() Router { return &poolFlooder{seen: map[uint64]bool{}, handed: handed} })
	w.AddFlow(ids[0], ids[nodes-1], 1, 0.2, perWave, 256)
	w.AddFlow(ids[0], ids[nodes-1], 11, 0.2, perWave, 256)
	w.StartRun()
	if err := w.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	// the first wave has drained: every packet the pool ever allocated was
	// handed to a router, and all of them are back in the free list
	warm := len(handed)
	if warm == 0 || len(w.pktFree) != warm {
		t.Fatalf("after the first wave the pool has allocated %d packets and holds %d", warm, len(w.pktFree))
	}
	checkFreeList(t, w)
	if err := w.AdvanceTo(20); err != nil {
		t.Fatal(err)
	}
	checkFreeList(t, w)
	if got := w.col.DataDelivered; got != 2*perWave {
		t.Fatalf("delivered %d of %d packets: the flood is broken", got, 2*perWave)
	}
	if grown := len(handed) - warm; grown > perWave {
		t.Fatalf("the second wave originated %d packets and the pool allocated %d new ones beside the %d it had", perWave, grown, warm)
	}
	if len(w.pktFree) != len(handed) {
		t.Fatalf("the pool allocated %d packets and %d came back", len(handed), len(w.pktFree))
	}
}

// finalWorld is two static sinks in range of each other, with a source of
// pool packets to SendFinal, on a MAC layer with cfg in place of the
// world's own.
func finalWorld(t *testing.T, cfg mac.Config) (*World, []*sinkRouter, func() *Packet) {
	t.Helper()
	w := NewWorld(Config{Seed: 1}, mobility.NewPlayback(nil))
	w.mac = mac.NewLayer(w.eng, w.links, cfg, w.col, w.dispatch, w.txFailed)
	w.mac.OnFrameDone(w.frameDone)
	routers := []*sinkRouter{{}, {}}
	w.AddStaticNode(RSU, geom.V(0, 0), routers[0])
	w.AddStaticNode(RSU, geom.V(100, 0), routers[1])
	uid := uint64(0)
	newPkt := func() *Packet {
		uid++
		p := w.getPacket()
		*p = Packet{UID: uid, Kind: KindData, Data: true, Proto: "echo", Src: 0, Dst: Broadcast, TTL: 4, Size: 200, Created: w.eng.Now()}
		return p
	}
	return w, routers, newPkt
}

// A SendFinal packet must come back to the free list exactly once whichever
// way the frame leaves the MAC.
func TestSendFinalRecycledOncePerExit(t *testing.T) {
	t.Run("transmitted", func(t *testing.T) {
		w, routers, newPkt := finalWorld(t, mac.Config{})
		var pkt *Packet
		w.eng.At(1, func() {
			pkt = newPkt()
			routers[0].API.SendFinal(Broadcast, pkt)
			checkFreeList(t, w) // still queued: not recycled yet
		})
		if err := w.Run(2); err != nil {
			t.Fatal(err)
		}
		if routers[1].got != 1 {
			t.Fatalf("receiver got %d packets, want the one sent", routers[1].got)
		}
		checkFreeList(t, w, pkt)
	})
	t.Run("queue overflow", func(t *testing.T) {
		w, routers, newPkt := finalWorld(t, mac.Config{QueueCap: 1})
		var first, second *Packet
		w.eng.At(1, func() {
			first, second = newPkt(), newPkt()
			routers[0].API.SendFinal(Broadcast, first)
			routers[0].API.SendFinal(Broadcast, second)
			checkFreeList(t, w, second) // refused by the full queue, recycled inside Send
		})
		if err := w.Run(2); err != nil {
			t.Fatal(err)
		}
		if w.col.MACChannelLoss != 1 || routers[1].got != 1 {
			t.Fatalf("channel loss %d, receptions %d: want one overflow drop and one delivery", w.col.MACChannelLoss, routers[1].got)
		}
		checkFreeList(t, w, first, second)
	})
	t.Run("busy-medium drop", func(t *testing.T) {
		w, routers, newPkt := finalWorld(t, mac.Config{MaxRetries: 1})
		var pkt *Packet
		w.eng.At(1, func() {
			// a second of airtime from node 1 keeps node 0 deferring
			long := newPkt()
			long.Size = 750_000
			routers[1].API.Send(Broadcast, long)
		})
		w.eng.At(1.1, func() {
			pkt = newPkt()
			routers[0].API.SendFinal(Broadcast, pkt)
		})
		w.eng.At(1.5, func() {
			if w.col.MACChannelLoss != 1 {
				t.Errorf("channel loss %d at t=1.5, want the frame given up after MaxRetries", w.col.MACChannelLoss)
			}
			checkFreeList(t, w, pkt)
		})
		if err := w.Run(3); err != nil {
			t.Fatal(err)
		}
		if routers[1].got != 0 || routers[0].got != 1 {
			t.Fatalf("receptions %d at node 1 and %d at node 0, want only the long frame at node 0", routers[1].got, routers[0].got)
		}
		checkFreeList(t, w, pkt)
	})
	t.Run("crash flushes the queue", func(t *testing.T) {
		w, routers, newPkt := finalWorld(t, mac.Config{})
		var onAir, queued *Packet
		w.eng.At(1, func() {
			onAir, queued = newPkt(), newPkt()
			onAir.Size = 75_000 // 0.1 s of airtime
			routers[0].API.SendFinal(Broadcast, onAir)
			routers[0].API.SendFinal(Broadcast, queued)
		})
		w.eng.At(1.05, func() {
			w.CrashNode(0)
			checkFreeList(t, w, queued) // flushed; the frame on the air is not done yet
		})
		if err := w.Run(2); err != nil {
			t.Fatal(err)
		}
		if routers[1].got != 1 {
			t.Fatalf("receiver got %d packets, want only the frame already on the air", routers[1].got)
		}
		checkFreeList(t, w, onAir, queued)
	})
	t.Run("inactive sender", func(t *testing.T) {
		w, routers, newPkt := finalWorld(t, mac.Config{})
		var pkt *Packet
		w.eng.At(1, func() {
			w.setActive(w.nodeByID(0), false)
			pkt = newPkt()
			routers[0].API.SendFinal(Broadcast, pkt)
			checkFreeList(t, w, pkt)
		})
		if err := w.Run(2); err != nil {
			t.Fatal(err)
		}
		if w.col.MACTransmits != 0 {
			t.Fatal("an inactive node transmitted")
		}
		checkFreeList(t, w, pkt)
	})
}

// resendRouter keeps every copy it receives and forwards it with plain Send,
// as a router with a retry buffer does.
type resendRouter struct {
	echoRouter
}

func (r *resendRouter) NeedsBeacons() bool { return false }

func (r *resendRouter) HandlePacket(pkt *Packet) {
	r.got = append(r.got, pkt)
	if pkt.TTL--; !pkt.Expired() {
		r.API.Send(Broadcast, pkt)
	}
}

// The mark SendFinal sets belongs to the sender's packet alone: a receiver's
// copy of that frame, sent on with Send, must stay the receiver's.
func TestSendFinalMarkStaysWithTheSender(t *testing.T) {
	w := NewWorld(Config{Seed: 1}, mobility.NewPlayback(nil))
	sender, keeper := &sinkRouter{}, &resendRouter{}
	w.AddStaticNode(RSU, geom.V(0, 0), sender)
	w.AddStaticNode(RSU, geom.V(100, 0), keeper)
	var sent *Packet
	w.eng.At(1, func() {
		sent = w.getPacket()
		*sent = Packet{UID: 7, Kind: KindData, Data: true, Proto: "echo", Src: 0, Dst: Broadcast, TTL: 2, Size: 200}
		sender.API.SendFinal(Broadcast, sent)
	})
	if err := w.Run(2); err != nil {
		t.Fatal(err)
	}
	if len(keeper.got) != 1 || sender.got != 1 {
		t.Fatalf("keeper got %d packets and the sender %d echoes, want one each", len(keeper.got), sender.got)
	}
	kept := keeper.got[0]
	if kept.final {
		t.Fatal("the dispatch copy carries the sender's mark")
	}
	if kept.UID != 7 || kept.Hops != 1 {
		t.Fatalf("the kept copy was recycled under its owner: %+v", *kept)
	}
	checkFreeList(t, w, sent)
	for _, p := range w.pktFree {
		if p == kept {
			t.Fatal("the kept copy is in the free list")
		}
	}
}
