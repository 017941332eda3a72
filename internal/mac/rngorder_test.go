package mac

import (
	"testing"

	"github.com/vanetlab/relroute/internal/channel"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/prob"
	"github.com/vanetlab/relroute/internal/radio"
	"github.com/vanetlab/relroute/internal/sim"
	"github.com/vanetlab/relroute/internal/spatial"
)

// TestRNGDrawOrderContract pins the MAC's complete draw-order contract on
// its shared stream (the layer's one engine stream). Every stochastic
// decision the MAC makes, who draws it, and in what order:
//
//	stage                          draws on the MAC stream
//	─────────────────────────────  ──────────────────────────────────────
//	Send (queue idle → arming)     1 uniform: backoff
//	attempt, medium busy (defer)   1 uniform: backoff re-arm — per
//	                               deferral, up to MaxRetries, none on
//	                               the drop that exhausts them
//	transmit, per candidate        in neighborhood order, per receiver:
//	  receiver                       1. channel Decodable — exactly the
//	                                    model's draws (Shadowing: 1
//	                                    uniform when the receipt
//	                                    probability is strictly inside
//	                                    (0,1); UnitDisk: none)
//	                                 2. fault-plane partial loss — 1
//	                                    uniform iff 0 < p < 1; a severed
//	                                    link (p ≥ 1) draws nothing
//	finishTx (resolve + deliver)   0 — classification is draw-free; the
//	                               receiver-side RSSI draw belongs to the
//	                               receiver's private stream in netstack
//	finishTx, queue non-empty      1 uniform: backoff for the next frame
//	  (incl. unicast ARQ retry)
//
// The RNG lane rule follows from this table: all transmit-side draws
// happen on the event path in candidate order. The same order must hold
// for every
// frame kind — broadcast and unicast differ only in the ARQ tail, never
// in the per-receiver lane.
func TestRNGDrawOrderContract(t *testing.T) {
	eng := sim.NewEngine(7)
	grid := spatial.NewGrid(250)
	ch := channel.NewShadowing(prob.DefaultReceiptModel())
	// Three candidate receivers, all with receipt probability strictly
	// inside (0,1) so each costs exactly one channel uniform.
	for id, x := range map[int32]float64{1: 150, 2: 160, 3: 170} {
		grid.Update(id, geom.V(x, 0))
		if p := ch.Receipt().Prob(x); p <= 0 || p >= 1 {
			t.Fatalf("receipt prob at %gm = %v, need strictly interior for the draw count", x, p)
		}
	}
	grid.Update(0, geom.V(0, 0))
	col := metrics.NewCollector()
	layer := NewLayer(eng, radio.NewCache(grid, ch), Config{
		MaxBackoff:  1e-6, // transmits start ~instantly
		LinkRetries: -1,   // ARQ off: a failed unicast drops at first resolve
	}, col, func(int32, Frame) {}, func(int32, Frame) {})
	// Fault plane: rx2's link degrades (one extra uniform), rx3's is
	// severed (no draw at all).
	layer.SetLinkFault(func(from, to int32) float64 {
		switch to {
		case 2:
			return 0.5
		case 3:
			return 1.0
		}
		return 0
	})
	draws := func() uint64 { return eng.AppendStreamStates(nil)[1].Draws }

	// ── broadcast ──
	layer.Send(Frame{From: 0, To: Broadcast, Size: 7500}) // airtime 10ms
	if got := draws(); got != 1 {
		t.Fatalf("after Send: %d draws, want 1 (backoff)", got)
	}
	if err := eng.Run(0.001); err != nil { // transmit done, airtime pending
		t.Fatal(err)
	}
	if got := draws(); got != 5 {
		t.Fatalf("after transmit: %d draws, want 5 (backoff + 3 decodable + 1 partial fault)", got)
	}

	// ── busy-medium deferrals ── node 1 is mid-reception of node 0's
	// frame, so each attempt defers and re-arms until retries exhaust:
	// 1 send backoff + MaxRetries re-arms, nothing for the final drop.
	layer.Send(Frame{From: 1, To: Broadcast, Size: 100})
	if err := eng.Run(0.005); err != nil { // all deferrals fire, airtime still pending
		t.Fatal(err)
	}
	if got := draws(); got != 5+1+7 {
		t.Fatalf("after deferral exhaustion: %d draws, want %d (send backoff + 7 deferral re-arms)", got, 5+1+7)
	}
	if err := eng.Run(1); err != nil { // frame 0 resolves; both queues idle
		t.Fatal(err)
	}
	if got := draws(); got != 13 {
		t.Fatalf("after resolve: %d draws, want 13 (finishTx and delivery draw nothing)", got)
	}

	// ── unicast to a severed link ── same per-receiver lane as
	// broadcast; the guaranteed failure drops without ARQ (disabled), so
	// no trailing backoff draw either.
	layer.Send(Frame{From: 0, To: 3, Size: 7500})
	if err := eng.Run(2); err != nil {
		t.Fatal(err)
	}
	if got := draws(); got != 13+1+4 {
		t.Fatalf("after unicast lifecycle: %d draws, want %d (backoff + 3 decodable + 1 partial fault, 0 for the drop)", got, 13+1+4)
	}
	if col.MACTransmits != 2 {
		t.Fatalf("MACTransmits = %d, want 2", col.MACTransmits)
	}
}
