package netstack

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mobility"
)

// countingRouter counts beacons; it never sends.
type countingRouter struct {
	Base
	beacons int
}

func (r *countingRouter) Name() string          { return "counting" }
func (r *countingRouter) HandlePacket(*Packet)  {}
func (r *countingRouter) Originate(NodeID, int) {}
func (r *countingRouter) OnBeacon(*Neighbor)    { r.beacons++ }
func (r *countingRouter) NeedsBeacons() bool    { return true }

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
	w := NewWorld(Config{Seed: 1, BeaconInterval: 0.1}, mobility.NewPlayback(nil))
	r1 := &countingRouter{}
	r2 := &countingRouter{}
	w.AddStaticNode(RSU, geom.V(0, 0), r1)
	w.AddStaticNode(RSU, geom.V(100, 0), r2)
	if err := w.Run(2); err != nil {
		t.Fatal(err)
	}
	if r1.beacons == 0 || r2.beacons == 0 {
		t.Fatalf("beaconing broken: %d/%d beacons seen", r1.beacons, r2.beacons)
	}
	// Each node has at most one beacon in flight at a time, so the free
	// list bounds the total beacon packets ever allocated to ~one per node.
	if got := len(w.helloFree); got == 0 || got > 4 {
		t.Fatalf("hello free list has %d packets after the run, want 1..4 (recycling broken?)", got)
	}
}
