package radio

import (
	"math/rand"
	"testing"

	"github.com/vanetlab/relroute/internal/channel"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/par"
	"github.com/vanetlab/relroute/internal/prob"
	"github.com/vanetlab/relroute/internal/spatial"
)

// BenchmarkLinksHit measures the per-frame fast path: a cached
// neighborhood query with no grid change since the last build.
func BenchmarkLinksHit(b *testing.B) {
	_, c := warmCache(channel.UnitDisk{Range: 250})
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c.Links(int32(n % 64))
	}
}

// BenchmarkLinksRebuild measures the once-per-epoch slow path: every
// iteration moves a node and rebuilds one neighborhood (64 nodes on a
// line, 30 m apart, shadowing's 545 m reach).
func BenchmarkLinksRebuild(b *testing.B) {
	model := channel.NewShadowing(prob.DefaultReceiptModel())
	grid, c := warmCache(model)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		grid.Update(0, geom.V(float64(n%100), 0))
		c.Links(32)
	}
}

var benchDecoded int

// BenchmarkLinksShadowedCity is what one beacon costs the radio plane on a
// shadowed city grid at bench/'s city-probe density: the world has moved
// since the sender last transmitted, so its neighborhood is rebuilt lazily
// (≈ 90 candidates on the streets within reach), then every candidate's
// reception is drawn once, as mac.transmit does.
func BenchmarkLinksShadowedCity(b *testing.B) {
	model := channel.NewShadowing(prob.DefaultReceiptModel())
	grid := spatial.NewGrid(model.MaxRange())
	rng := rand.New(rand.NewSource(5))
	// ten streets each way, 400 m blocks
	const n = 1500
	for id := int32(0); id < n; id++ {
		street, along := float64(rng.Intn(10))*400, rng.Float64()*3600
		if id%2 == 0 {
			street, along = along, street
		}
		grid.Update(id, geom.V(street, along))
	}
	c := NewCache(grid, model)
	links := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid.AdvanceEpoch()
		hood := c.Links(int32(i % n))
		links += len(hood)
		for _, lk := range hood {
			if c.Decodable(lk, rng) {
				benchDecoded++
			}
		}
	}
	b.ReportMetric(float64(links)/float64(b.N), "links/op")
}

// sweepBenchWorld is a 512-node highway cloud dense enough that every
// node has a few dozen neighbors — the regime where full-population
// rebuild cost is decided.
func sweepBenchWorld(model channel.Model) (*spatial.Grid, *Cache) {
	grid := spatial.NewGrid(model.MaxRange())
	rng := rand.New(rand.NewSource(5))
	for id := int32(0); id < 512; id++ {
		grid.Update(id, geom.V(rng.Float64()*4000, rng.Float64()*500))
	}
	return grid, NewCache(grid, model)
}

// BenchmarkRebuildSweep measures rebuilding EVERY neighborhood via the
// symmetric cell-pair sweep: each unordered pair's distance computed once,
// written to both endpoints.
func BenchmarkRebuildSweep(b *testing.B) {
	model := channel.NewShadowing(prob.DefaultReceiptModel())
	grid, c := sweepBenchWorld(model)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		grid.Update(0, geom.V(float64(n%100), 0))
		c.RebuildSweep(par.Seq)
	}
}

// BenchmarkRebuildAllLazy is the same full-population rebuild through the
// per-transmitter lazy path — every pair visited from both ends. The gap
// to BenchmarkRebuildSweep is the sweep's halved pair math.
func BenchmarkRebuildAllLazy(b *testing.B) {
	model := channel.NewShadowing(prob.DefaultReceiptModel())
	grid, c := sweepBenchWorld(model)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		grid.Update(0, geom.V(float64(n%100), 0))
		for id := int32(0); id < 512; id++ {
			c.Links(id)
		}
	}
}
