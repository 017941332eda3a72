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

// BenchmarkBroadcastStorm measures the MAC's steady-state frame lifecycle —
// Send, backoff, carrier sense, per-receiver receptions, collision
// resolution — with 50 nodes each broadcasting into a dense segment. One
// op is a full 50-frame storm wave, drained. This is the per-frame hot
// path of a flooding run (bench/'s hwy-flood); after the pools warm up it
// must not allocate.
func BenchmarkBroadcastStorm(b *testing.B) {
	const nodes = 50
	eng := sim.NewEngine(1)
	grid := spatial.NewGrid(250)
	col := metrics.NewCollector()
	layer := NewLayer(eng, radio.NewCache(grid, channel.UnitDisk{Range: 250}), Config{}, col,
		func(to int32, f Frame) {}, nil)
	for i := int32(0); i < nodes; i++ {
		grid.Update(i, geom.V(float64(i)*20, 0))
	}
	until := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := int32(0); i < nodes; i++ {
			layer.Send(Frame{From: i, To: Broadcast, Size: 400})
		}
		until += 2
		if err := eng.Run(until); err != nil {
			b.Fatal(err)
		}
	}
	if col.MACTransmits == 0 {
		b.Fatal("nothing transmitted")
	}
}

// BenchmarkUnicastARQ measures the steady-state unicast retransmission
// path: every frame is addressed to an out-of-range receiver, so the ARQ
// budget is fully spent per send.
func BenchmarkUnicastARQ(b *testing.B) {
	eng := sim.NewEngine(1)
	grid := spatial.NewGrid(250)
	col := metrics.NewCollector()
	layer := NewLayer(eng, radio.NewCache(grid, channel.UnitDisk{Range: 250}), Config{LinkRetries: 4}, col,
		func(to int32, f Frame) {}, nil)
	grid.Update(0, geom.V(0, 0))
	grid.Update(1, geom.V(5000, 0))
	until := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for k := 0; k < 32; k++ {
			layer.Send(Frame{From: 0, To: 1, Size: 400})
		}
		until += 5
		if err := eng.Run(until); err != nil {
			b.Fatal(err)
		}
	}
}
