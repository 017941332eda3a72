package netstack

import (
	"slices"
	"testing"
	"unsafe"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mac"
	"github.com/vanetlab/relroute/internal/mobility"
)

// countingRouter counts beacons; it never sends.
type countingRouter struct {
	Base
	beacons int
}

func (r *countingRouter) HandlePacket(*Packet)      {}
func (r *countingRouter) Originate(NodeID, int)     {}
func (r *countingRouter) OnBeacon(NodeID, NodeKind) { r.beacons++ }
func (r *countingRouter) NeedsBeacons() bool        { return true }

// TestPacketIs80Bytes pins the unit every send and pooled copy moves: the
// one-byte Kind sits in the padding between UID and Src, so a field added
// or moved here is paid for on every frame.
func TestPacketIs80Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 80 {
		t.Fatalf("netstack.Packet is %d bytes, want 80", got)
	}
}

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
	p := &Packet{UID: 7, Kind: KindData, TTL: 3, Hops: 2, Payload: "stale"}
	w.putPacket(p)
	got := w.getPacket()
	if got != p {
		t.Fatal("pool did not hand back the recycled packet")
	}
	if *got != (Packet{}) {
		t.Fatalf("recycled packet not zeroed: %+v", *got)
	}
}

// Beacon records must be recycled through the beacon free list once the
// MAC reports the frame done, so steady-state beaconing stops allocating
// them. This exercises the full loop: sendBeacon → MAC → receiver
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
	// list bounds the total beacon records ever allocated to ~one per node.
	if got := len(w.beaconFree); got == 0 || got > 4 {
		t.Fatalf("beacon free list has %d records after the run, want 1..4 (recycling broken?)", got)
	}
}

// silentRouter listens to nothing and sends nothing, so a world of them
// arms no beacon tickers: the test sends every beacon itself.
type silentRouter struct{ Base }

func (r *silentRouter) HandlePacket(*Packet)  {}
func (r *silentRouter) Originate(NodeID, int) {}
func (r *silentRouter) NeedsBeacons() bool    { return false }

// Two beacons sent at the same instant are in flight at once, each its own
// record until its frame is done: every receiver holds each sender's own
// kind and position, not the later send's.
func TestBeaconsInFlightStayApart(t *testing.T) {
	w := NewWorld(Config{Seed: 1}, mobility.NewPlayback(nil))
	kinds := []NodeKind{RSU, BusNode, Vehicle}
	pos := []geom.Vec2{geom.V(0, 0), geom.V(100, 0), geom.V(50, 0)}
	routers := make([]*silentRouter, len(kinds))
	for i := range kinds {
		routers[i] = &silentRouter{}
		w.AddStaticNode(kinds[i], pos[i], routers[i])
	}
	w.StartRun()
	w.sendBeacon(w.nodes[0])
	w.sendBeacon(w.nodes[1])
	if err := w.AdvanceTo(0.1); err != nil {
		t.Fatal(err)
	}
	heard := []int{1, 1, 2} // the senders hear each other, the third node both
	for i, r := range routers {
		nbs := r.API.AppendNeighbors(nil)
		if len(nbs) != heard[i] {
			t.Fatalf("node %d heard %d beacons, want %d", i, len(nbs), heard[i])
		}
		for _, nb := range nbs {
			if nb.Kind != kinds[nb.ID] || nb.Pos != pos[nb.ID] {
				t.Errorf("node %d holds %d as a %v at %v, want a %v at %v",
					i, nb.ID, nb.Kind, nb.Pos, kinds[nb.ID], pos[nb.ID])
			}
		}
	}
}

// poolFlooder is flood.Router's ownership discipline without the import
// cycle: originate on a pooled packet, Release every copy that ends here and
// send the first copy on. handed, shared by the world's routers, collects
// every packet the stack's pool has handed out.
type poolFlooder struct {
	Base
	seen   map[uint64]bool
	handed map[*Packet]bool
}

func (r *poolFlooder) NeedsBeacons() bool { return false }

func (r *poolFlooder) Originate(dst NodeID, size int) {
	pkt := r.API.NewPacket()
	*pkt = Packet{
		UID: r.API.NewUID(), Kind: KindData,
		Src: r.API.Self(), Dst: dst, TTL: 16, Size: size, Created: r.API.Now(),
	}
	r.handed[pkt] = true
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
	r.API.Send(Broadcast, pkt)
}

// sinkRouter counts the packets it receives and releases every copy, so
// once a run has drained every pool packet is back in the free list.
type sinkRouter struct {
	Base
	got  int
	uids []uint64
}

func (r *sinkRouter) NeedsBeacons() bool    { return false }
func (r *sinkRouter) Originate(NodeID, int) {}
func (r *sinkRouter) HandlePacket(pkt *Packet) {
	r.got++
	r.uids = append(r.uids, pkt.UID)
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

// A flood in steady state must stop allocating packets: a sent packet comes
// back when its frame is done, every other copy through Release, so a
// second identical wave of originations finds the pool warm and makes it
// allocate fewer new packets than the wave originates. (A rebroadcast the
// stack did not recycle would cost ten packets per origination on this
// line.)
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

// sinkWorld is two static sinks in range of each other, with a source of
// pool packets to send, on a MAC layer with cfg in place of the world's
// own.
func sinkWorld(t *testing.T, cfg mac.Config) (*World, []*sinkRouter, func() *Packet) {
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
		*p = Packet{UID: uid, Kind: KindData, Src: 0, Dst: Broadcast, TTL: 4, Size: 200, Created: w.eng.Now()}
		return p
	}
	return w, routers, newPkt
}

// A sent packet must come back to the free list exactly once whichever way
// the frame leaves the MAC.
func TestSendRecycledOncePerExit(t *testing.T) {
	t.Run("transmitted", func(t *testing.T) {
		w, routers, newPkt := sinkWorld(t, mac.Config{})
		var pkt *Packet
		w.eng.At(1, func() {
			pkt = newPkt()
			routers[0].API.Send(Broadcast, pkt)
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
		w, routers, newPkt := sinkWorld(t, mac.Config{QueueCap: 1})
		var first, second *Packet
		w.eng.At(1, func() {
			first, second = newPkt(), newPkt()
			routers[0].API.Send(Broadcast, first)
			routers[0].API.Send(Broadcast, second)
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
		w, routers, newPkt := sinkWorld(t, mac.Config{MaxRetries: 1})
		var long, pkt *Packet
		w.eng.At(1, func() {
			// a second of airtime from node 1 keeps node 0 deferring
			long = newPkt()
			long.Size = 750_000
			routers[1].API.Send(Broadcast, long)
		})
		w.eng.At(1.1, func() {
			pkt = newPkt()
			routers[0].API.Send(Broadcast, pkt)
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
		checkFreeList(t, w, long, pkt)
	})
	t.Run("crash flushes the queue", func(t *testing.T) {
		w, routers, newPkt := sinkWorld(t, mac.Config{})
		var onAir, queued *Packet
		w.eng.At(1, func() {
			onAir, queued = newPkt(), newPkt()
			onAir.Size = 75_000 // 0.1 s of airtime
			routers[0].API.Send(Broadcast, onAir)
			routers[0].API.Send(Broadcast, queued)
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
		w, routers, newPkt := sinkWorld(t, mac.Config{})
		var pkt *Packet
		w.eng.At(1, func() {
			w.setActive(w.nodeByID(0), false)
			pkt = newPkt()
			routers[0].API.Send(Broadcast, pkt)
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

// A dispatch copy its router holds, neither sent nor released, stays the
// router's: the frame it came in on is recycled, the copy never is.
func TestHeldCopyStaysOutOfThePool(t *testing.T) {
	w := NewWorld(Config{Seed: 1}, mobility.NewPlayback(nil))
	sender, keeper := &sinkRouter{}, &echoRouter{}
	w.AddStaticNode(RSU, geom.V(0, 0), sender)
	w.AddStaticNode(RSU, geom.V(100, 0), keeper)
	var sent *Packet
	w.eng.At(1, func() {
		sent = w.getPacket()
		*sent = Packet{UID: 7, Kind: KindData, Src: 0, Dst: Broadcast, TTL: 2, Size: 200}
		sender.API.Send(Broadcast, sent)
	})
	if err := w.Run(2); err != nil {
		t.Fatal(err)
	}
	if len(keeper.got) != 1 {
		t.Fatalf("keeper got %d packets, want one", len(keeper.got))
	}
	kept := keeper.got[0]
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

// counted is a payload that counts how often it was handed back.
type counted struct{ recycled int }

func (c *counted) Recycle() { c.recycled++ }

// A sent payload is handed back once, when its frame is done, after the
// receiver has read and released its copy, or at once when the sender
// cannot transmit; a receiver's copy, a dropped and a released packet
// never hand theirs back.
func TestSentPayloadRecycledAtFrameDone(t *testing.T) {
	w, routers, newPkt := sinkWorld(t, mac.Config{})
	var sent, kept counted
	w.eng.At(1, func() {
		pkt := newPkt()
		pkt.Payload = &sent
		routers[0].API.Send(Broadcast, pkt)
		if sent.recycled != 0 {
			t.Error("a payload still queued was handed back")
		}
	})
	if err := w.Run(2); err != nil {
		t.Fatal(err)
	}
	if routers[1].got != 1 || sent.recycled != 1 {
		t.Fatalf("%d receptions, payload handed back %d times; want 1 and once", routers[1].got, sent.recycled)
	}
	dropped, released := newPkt(), newPkt()
	dropped.Payload, released.Payload = &kept, &kept
	routers[0].API.Drop(dropped)
	routers[0].API.Release(released)
	if kept.recycled != 0 {
		t.Fatalf("a dropped and a released packet handed their payload back %d times", kept.recycled)
	}
	if !w.CrashNode(routers[0].API.Self()) {
		t.Fatal("the sender did not crash")
	}
	pkt := newPkt()
	pkt.Payload = &sent
	routers[0].API.Send(Broadcast, pkt)
	if sent.recycled != 2 {
		t.Fatalf("a crashed sender's payload was handed back %d times in all, want 2", sent.recycled)
	}
	checkFreeList(t, w, pkt)
}

// Delayed sends in flight at once each keep their own packet until its
// time, whatever order they were made in; each packet comes back once, and
// a second round reuses the slots of the first. A crashed sender's delayed
// packet comes back at its time, unsent.
func TestSendAfterHoldsEachPacket(t *testing.T) {
	w, routers, newPkt := sinkWorld(t, mac.Config{})
	api := routers[0].API
	var pkts []*Packet
	round := func(at float64) {
		w.eng.At(at, func() {
			for _, d := range []float64{0.3, 0.1, 0.2} {
				pkt := newPkt()
				pkts = append(pkts, pkt)
				api.SendAfter(d, Broadcast, pkt)
			}
		})
		if err := w.Run(at + 0.5); err != nil {
			t.Fatal(err)
		}
	}
	round(1)
	round(2)
	if want := []uint64{2, 3, 1, 5, 6, 4}; !slices.Equal(routers[1].uids, want) {
		t.Fatalf("the receiver got UIDs %v, want %v", routers[1].uids, want)
	}
	checkFreeList(t, w, pkts...)
	if len(w.delayed) != 3 || len(w.delayedFree) != 3 {
		t.Fatalf("%d slots, %d free after two rounds of three; want 3 and 3", len(w.delayed), len(w.delayedFree))
	}
	pkt := newPkt()
	api.SendAfter(0.1, Broadcast, pkt)
	w.CrashNode(api.Self())
	if err := w.Run(3); err != nil {
		t.Fatal(err)
	}
	if routers[1].got != 6 {
		t.Fatalf("the receiver got %d packets, want none from the crashed sender", routers[1].got-6)
	}
	checkFreeList(t, w, pkt)
}
