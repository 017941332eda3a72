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

// shardWorld populates a grid with a random cloud and returns two caches
// over the SAME grid: one exercised lazily, one via RebuildSweep.
func shardWorld(n int, model channel.Model) (*spatial.Grid, *Cache, *Cache, []int32) {
	grid := spatial.NewGrid(250)
	lazy := NewCache(grid, model)
	eager := NewCache(grid, model)
	rng := rand.New(rand.NewSource(11))
	ids := make([]int32, n)
	for id := int32(0); id < int32(n); id++ {
		grid.Update(id, geom.V(rng.Float64()*3000, rng.Float64()*500))
		ids[id] = id
	}
	return grid, lazy, eager, ids
}

// TestRebuildSweepMatchesLazy pins the contract bench/replay.go times the
// sweep under: after a sweep, every neighborhood is exactly — same
// receivers, same order, same distances — what the lazy Links path
// computes on demand, across epochs, shard counts, and channel models
// (which differ in reach: 250 m and the shadowing tail's 545 m).
func TestRebuildSweepMatchesLazy(t *testing.T) {
	models := map[string]channel.Model{
		"unitdisk":  channel.UnitDisk{Range: 250},
		"shadowing": channel.NewShadowing(prob.DefaultReceiptModel()),
	}
	for name, model := range models {
		for _, shards := range []int{1, 2, 4} {
			grid, lazy, eager, ids := shardWorld(80, model)
			pool := par.New(shards)
			rng := rand.New(rand.NewSource(23))
			for epoch := 0; epoch < 5; epoch++ {
				eager.RebuildSweep(pool)
				for _, id := range ids {
					want := lazy.Links(id)
					got := eager.Links(id)
					if len(want) != len(got) {
						t.Fatalf("%s shards=%d epoch %d node %d: %d links, want %d", name, shards, epoch, id, len(got), len(want))
					}
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("%s shards=%d epoch %d node %d link %d: %+v, want %+v", name, shards, epoch, id, i, got[i], want[i])
						}
					}
				}
				// move a third of the nodes and advance the epoch
				for _, id := range ids {
					if id%3 == 0 {
						grid.Update(id, geom.V(rng.Float64()*3000, rng.Float64()*500))
					}
				}
			}
			pool.Close()
		}
	}
}

// TestRebuildSweepIdempotentAndCountsBuilds checks the per-epoch no-op: a
// second sweep in the same epoch does nothing (Builds does not move), and
// the build counter charges exactly one build per grid member per swept
// epoch.
func TestRebuildSweepIdempotentAndCountsBuilds(t *testing.T) {
	grid, _, eager, _ := shardWorld(60, channel.UnitDisk{Range: 250})
	pool := par.New(4)
	defer pool.Close()
	eager.RebuildSweep(pool)
	if got := eager.Builds(); got != 60 {
		t.Fatalf("first sweep built %d hoods, want 60", got)
	}
	eager.RebuildSweep(pool)
	if got := eager.Builds(); got != 60 {
		t.Fatalf("second same-epoch sweep rebuilt hoods: builds = %d, want 60", got)
	}
	grid.Update(0, geom.V(1, 499))
	eager.RebuildSweep(pool)
	if got := eager.Builds(); got != 120 {
		t.Fatalf("post-move sweep built to %d, want 120", got)
	}
}

// TestRebuildSweepSteadyStateAllocs pins the arena contract: once the
// per-shard pair arenas, the CSR snapshot, and the hood slices have warmed
// up, a sweep's only allocation is the fork closure itself — nothing
// scales with the population. A vehicle toggling between two cells keeps
// the epoch turning over (so every hood really rebuilds each pass) without
// growing any neighborhood past its warmed capacity.
func TestRebuildSweepSteadyStateAllocs(t *testing.T) {
	grid, _, eager, _ := shardWorld(100, channel.UnitDisk{Range: 250})
	pool := par.New(4)
	defer pool.Close()
	there, back := geom.V(2990, 10), geom.V(10, 490)
	tick := 0
	move := func() {
		tick++
		if tick%2 == 0 {
			grid.Update(0, there)
		} else {
			grid.Update(0, back)
		}
	}
	for i := 0; i < 4; i++ { // warm arenas at both geometries
		move()
		eager.RebuildSweep(pool)
	}
	allocs := testing.AllocsPerRun(20, func() {
		move()
		eager.RebuildSweep(pool)
	})
	if allocs > 1 {
		t.Fatalf("steady-state RebuildSweep allocates %.1f per tick, want <= 1 (the fork closure)", allocs)
	}
}

// TestPrevEpochUseTracksDemand checks the demand bench/ladder.go reports:
// how many distinct transmitters asked for a neighborhood in the PREVIOUS
// epoch, not the current one.
func TestPrevEpochUseTracksDemand(t *testing.T) {
	grid, lazy, _, _ := shardWorld(10, channel.UnitDisk{Range: 250})
	if got := lazy.PrevEpochUse(); got != 0 {
		t.Fatalf("fresh cache PrevEpochUse = %d", got)
	}
	for id := int32(0); id < 6; id++ {
		lazy.Links(id)
		lazy.Links(id) // repeat requests must not double-count
	}
	grid.Update(0, geom.V(9999, 0)) // epoch turns over
	lazy.Links(0)
	if got := lazy.PrevEpochUse(); got != 6 {
		t.Fatalf("PrevEpochUse after epoch turnover = %d, want 6", got)
	}
}
