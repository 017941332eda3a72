package mac

import (
	"testing"

	"github.com/vanetlab/relroute/internal/channel"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/radio"
	"github.com/vanetlab/relroute/internal/sim"
	"github.com/vanetlab/relroute/internal/spatial"
)

type fixture struct {
	eng   *sim.Engine
	grid  *spatial.Grid
	col   *metrics.Collector
	layer *Layer
	rx    []Frame
	rxBy  map[int32][]Frame
	fails []Frame
}

func newFixture(cfg Config, rangeM float64) *fixture {
	f := &fixture{
		eng:  sim.NewEngine(1),
		grid: spatial.NewGrid(rangeM),
		col:  metrics.NewCollector(),
		rxBy: make(map[int32][]Frame),
	}
	f.layer = NewLayer(f.eng, radio.NewCache(f.grid, channel.UnitDisk{Range: rangeM}), cfg, f.col,
		func(to int32, fr Frame) {
			f.rx = append(f.rx, fr)
			f.rxBy[to] = append(f.rxBy[to], fr)
		},
		func(from int32, fr Frame) { f.fails = append(f.fails, fr) },
	)
	return f
}

func TestBroadcastDelivery(t *testing.T) {
	f := newFixture(Config{}, 250)
	f.grid.Update(0, geom.V(0, 0))
	f.grid.Update(1, geom.V(100, 0))
	f.grid.Update(2, geom.V(200, 0))
	f.grid.Update(3, geom.V(600, 0)) // out of range
	f.layer.Send(Frame{From: 0, To: Broadcast, Size: 100, Payload: "x"})
	if err := f.eng.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(f.rxBy[1]) != 1 || len(f.rxBy[2]) != 1 {
		t.Fatalf("in-range receivers got %d/%d frames", len(f.rxBy[1]), len(f.rxBy[2]))
	}
	if len(f.rxBy[3]) != 0 {
		t.Fatal("out-of-range receiver got the frame")
	}
	if len(f.rxBy[0]) != 0 {
		t.Fatal("sender received its own frame")
	}
	if f.col.MACTransmits != 1 {
		t.Fatalf("transmits = %d", f.col.MACTransmits)
	}
}

func TestUnicastOnlyAddresseeGetsUpcall(t *testing.T) {
	// The MAC delivers every decodable frame; filtering to the addressee
	// happens in the netstack dispatch. Here both hear it.
	f := newFixture(Config{}, 250)
	f.grid.Update(0, geom.V(0, 0))
	f.grid.Update(1, geom.V(50, 0))
	f.grid.Update(2, geom.V(100, 0))
	f.layer.Send(Frame{From: 0, To: 1, Size: 100})
	if err := f.eng.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(f.rxBy[1]) != 1 {
		t.Fatal("addressee did not receive")
	}
}

func TestRemovedReceiverGetsNoReception(t *testing.T) {
	// Regression: the pre-cache transmit loop ignored the ok return of
	// grid.Position(rx), so a receiver the grid stopped tracking would
	// have been received at a stale/zero position. A node that leaves the
	// index — failure injection, despawn — must stop receiving immediately,
	// even when the sender's neighborhood was cached while it was present.
	f := newFixture(Config{}, 250)
	f.grid.Update(0, geom.V(0, 0))
	f.grid.Update(1, geom.V(100, 0))
	f.layer.Send(Frame{From: 0, To: Broadcast, Size: 100}) // warms the cached neighborhood
	if err := f.eng.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(f.rxBy[1]) != 1 {
		t.Fatalf("receiver got %d frames while present, want 1", len(f.rxBy[1]))
	}
	f.grid.Remove(1)
	f.layer.Send(Frame{From: 0, To: Broadcast, Size: 100})
	if err := f.eng.Run(2); err != nil {
		t.Fatal(err)
	}
	if len(f.rxBy[1]) != 1 {
		t.Fatalf("removed node received a frame (got %d total)", len(f.rxBy[1]))
	}
	if f.col.MACTransmits != 2 {
		t.Fatalf("transmits = %d, want 2", f.col.MACTransmits)
	}
}

func TestCollisionOnSimultaneousSend(t *testing.T) {
	// Two senders out of carrier-sense range of each other, both in range
	// of the middle receiver: the classic hidden-terminal collision.
	f := newFixture(Config{MaxBackoff: 1e-9}, 250)
	f.grid.Update(0, geom.V(0, 0))
	f.grid.Update(1, geom.V(240, 0)) // receiver in range of both
	f.grid.Update(2, geom.V(480, 0)) // 480 m from node 0: hidden
	f.layer.Send(Frame{From: 0, To: Broadcast, Size: 1500})
	f.layer.Send(Frame{From: 2, To: Broadcast, Size: 1500})
	if err := f.eng.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(f.rxBy[1]) != 0 {
		t.Fatalf("receiver decoded %d frames through a collision", len(f.rxBy[1]))
	}
	if f.col.MACCollisions == 0 {
		t.Fatal("no collisions recorded")
	}
}

func TestCarrierSenseDefers(t *testing.T) {
	// Two senders within carrier-sense range: the second defers and both
	// frames get through.
	f := newFixture(Config{}, 250)
	f.grid.Update(0, geom.V(0, 0))
	f.grid.Update(1, geom.V(100, 0))
	f.grid.Update(2, geom.V(50, 0)) // receiver hears both
	f.layer.Send(Frame{From: 0, To: Broadcast, Size: 1500})
	f.layer.Send(Frame{From: 1, To: Broadcast, Size: 1500})
	if err := f.eng.Run(2); err != nil {
		t.Fatal(err)
	}
	if len(f.rxBy[2]) != 2 {
		t.Fatalf("receiver got %d of 2 frames", len(f.rxBy[2]))
	}
}

func TestConservation(t *testing.T) {
	// every potential reception resolves exactly once: delivered,
	// collided, or channel-lost
	f := newFixture(Config{MaxBackoff: 1e-6}, 250)
	for i := int32(0); i < 10; i++ {
		f.grid.Update(i, geom.V(float64(i)*60, 0))
	}
	const frames = 40
	for k := 0; k < frames; k++ {
		f.layer.Send(Frame{From: int32(k % 10), To: Broadcast, Size: 400})
	}
	if err := f.eng.Run(5); err != nil {
		t.Fatal(err)
	}
	resolved := f.col.MACDelivered + f.col.MACCollisions + f.col.MACChannelLoss
	if resolved == 0 {
		t.Fatal("nothing resolved")
	}
	if f.col.MACDelivered != len(f.rx) {
		t.Fatalf("delivered counter %d != upcalls %d", f.col.MACDelivered, len(f.rx))
	}
	if f.eng.Pending() != 0 {
		t.Fatalf("%d events still pending after drain", f.eng.Pending())
	}
}

func TestQueueCapDrops(t *testing.T) {
	f := newFixture(Config{QueueCap: 2, MaxBackoff: 10}, 250) // huge backoff jams the queue
	f.grid.Update(0, geom.V(0, 0))
	f.grid.Update(1, geom.V(10, 0))
	for i := 0; i < 10; i++ {
		f.layer.Send(Frame{From: 0, To: Broadcast, Size: 100})
	}
	if f.col.MACChannelLoss < 7 {
		t.Fatalf("queue overflow losses = %d, want ≥7", f.col.MACChannelLoss)
	}
}

func TestUnicastARQRecoversOnRetry(t *testing.T) {
	// Receiver is in range, but a colliding hidden transmission destroys
	// the first attempt; ARQ must retry and succeed.
	f := newFixture(Config{MaxBackoff: 1e-9, LinkRetries: 4}, 250)
	f.grid.Update(0, geom.V(0, 0))
	f.grid.Update(1, geom.V(240, 0))
	f.grid.Update(2, geom.V(480, 0))
	f.layer.Send(Frame{From: 0, To: 1, Size: 1500})
	f.layer.Send(Frame{From: 2, To: Broadcast, Size: 1500}) // collides once
	if err := f.eng.Run(2); err != nil {
		t.Fatal(err)
	}
	if len(f.rxBy[1]) == 0 {
		t.Fatal("unicast never recovered despite ARQ")
	}
	if len(f.fails) != 0 {
		t.Fatalf("fail upcall fired despite eventual success: %d", len(f.fails))
	}
}

func TestUnicastFailureUpcall(t *testing.T) {
	f := newFixture(Config{LinkRetries: 2}, 250)
	f.grid.Update(0, geom.V(0, 0))
	f.grid.Update(9, geom.V(10000, 0)) // addressee far out of range
	f.layer.Send(Frame{From: 0, To: 9, Size: 100, Payload: "gone"})
	if err := f.eng.Run(2); err != nil {
		t.Fatal(err)
	}
	if len(f.fails) != 1 {
		t.Fatalf("fail upcalls = %d, want 1", len(f.fails))
	}
	if f.fails[0].Payload != "gone" {
		t.Fatal("failed frame payload lost")
	}
	// broadcast frames never trigger the failure upcall
	f2 := newFixture(Config{LinkRetries: 2}, 250)
	f2.grid.Update(0, geom.V(0, 0))
	f2.layer.Send(Frame{From: 0, To: Broadcast, Size: 100})
	if err := f2.eng.Run(2); err != nil {
		t.Fatal(err)
	}
	if len(f2.fails) != 0 {
		t.Fatal("broadcast triggered failure upcall")
	}
}

func TestAirtimeScalesWithSize(t *testing.T) {
	f := newFixture(Config{BitRate: 1e6, MaxBackoff: 1e-12}, 250)
	f.grid.Update(0, geom.V(0, 0))
	f.grid.Update(1, geom.V(10, 0))
	var deliveredAt float64
	f.layer.deliver = func(to int32, fr Frame) { deliveredAt = f.eng.Now() }
	f.layer.Send(Frame{From: 0, To: Broadcast, Size: 1000}) // 8000 bits at 1 Mb/s = 8 ms
	if err := f.eng.Run(1); err != nil {
		t.Fatal(err)
	}
	if deliveredAt < 0.008 || deliveredAt > 0.009 {
		t.Fatalf("delivery at %v, want ≈8 ms airtime", deliveredAt)
	}
}

// The deque wraps indices with a mask, which is only right while its
// capacity is a power of two: drive it against a plain slice through
// growth, wrap-around and push-fronts at head 0.
func TestFrameDequeMatchesSlice(t *testing.T) {
	var d frameDeque
	var want []Frame
	next := 0
	frame := func() Frame { next++; return Frame{Size: next} }
	for step := 0; step < 400; step++ {
		switch {
		case step%7 == 3:
			f := frame()
			d.pushFront(f)
			want = append([]Frame{f}, want...)
		case step%3 == 2 && len(want) > 0:
			if got := d.popFront(); got.Size != want[0].Size {
				t.Fatalf("step %d: popFront = frame %d, want %d", step, got.Size, want[0].Size)
			}
			want = want[1:]
		default:
			f := frame()
			d.pushBack(f)
			want = append(want, f)
		}
		if d.len() != len(want) {
			t.Fatalf("step %d: len = %d, want %d", step, d.len(), len(want))
		}
		for i := range want {
			if d.at(i).Size != want[i].Size {
				t.Fatalf("step %d: at(%d) = frame %d, want %d", step, i, d.at(i).Size, want[i].Size)
			}
		}
		if c := len(d.buf); c&(c-1) != 0 {
			t.Fatalf("step %d: capacity %d is not a power of two", step, c)
		}
	}
	if len(d.buf) < 64 {
		t.Fatalf("the run ended at capacity %d; it was meant to grow the ring several times", len(d.buf))
	}
}
