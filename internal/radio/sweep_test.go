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

// referenceLinks is an independent reimplementation of the pre-sweep lazy
// rebuild — Grid.Within into a scratch slice, then per-candidate distance
// — so the property test cannot share a bug with either production path.
func referenceLinks(grid *spatial.Grid, model channel.Model, id int32) []Link {
	pos, ok := grid.Position(id)
	if !ok {
		return nil
	}
	var links []Link
	for _, rx := range grid.Within(pos, model.MaxRange(), nil) {
		if rx == id {
			continue
		}
		rxPos, _ := grid.Position(rx)
		links = append(links, Link{To: rx, Dist: rxPos.Dist(pos)})
	}
	return links
}

// TestSweepPropertyRandomChurn is the sweep's property test: random worlds
// under churn (moves, joins) and faults (removals — a failed node leaves
// the grid exactly like a crashed one does), swept at several shard
// counts, must yield for EVERY node — present or departed — links deeply
// equal (order, To, Dist) to the reference per-node Within rebuild,
// epoch after epoch.
func TestSweepPropertyRandomChurn(t *testing.T) {
	models := map[string]channel.Model{
		"unitdisk":  channel.UnitDisk{Range: 220},
		"shadowing": channel.NewShadowing(prob.DefaultReceiptModel()),
	}
	for name, model := range models {
		for _, shards := range []int{1, 2, 4} {
			pool := par.New(shards)
			for trial := 0; trial < 4; trial++ {
				rng := rand.New(rand.NewSource(int64(1000*shards + trial)))
				grid := spatial.NewGrid(model.MaxRange())
				c := NewCache(grid, model)
				n := 40 + rng.Intn(120)
				span := 800 + rng.Float64()*2400
				alive := make(map[int32]bool, n)
				for id := int32(0); id < int32(n); id++ {
					grid.Update(id, geom.V(rng.Float64()*span, rng.Float64()*span))
					alive[id] = true
				}
				for epoch := 0; epoch < 6; epoch++ {
					c.RebuildSweep(pool)
					for id := int32(0); id < int32(n); id++ {
						want := referenceLinks(grid, model, id)
						got := c.Links(id)
						if len(got) != len(want) {
							t.Fatalf("%s shards=%d trial %d epoch %d node %d: %d links, want %d (alive=%v)",
								name, shards, trial, epoch, id, len(got), len(want), alive[id])
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s shards=%d trial %d epoch %d node %d link %d: %+v, want %+v",
									name, shards, trial, epoch, id, i, got[i], want[i])
							}
						}
					}
					// churn: move half the population, fault a couple of
					// nodes, revive a couple of faulted ones
					for id := int32(0); id < int32(n); id++ {
						switch rng.Intn(6) {
						case 0, 1, 2:
							grid.Update(id, geom.V(rng.Float64()*span, rng.Float64()*span))
							alive[id] = true
						case 3:
							grid.Remove(id)
							alive[id] = false
						}
					}
				}
			}
			pool.Close()
		}
	}
}

// TestSweepColdVsWarmIdentical pins cold-cache re-derivation (the
// checkpoint-restore path): a fresh cache sweeping the same grid state
// must produce hoods identical to a long-lived cache that has swept many
// epochs — warmed arena capacities must never leak into link content.
func TestSweepColdVsWarmIdentical(t *testing.T) {
	model := channel.UnitDisk{Range: 250}
	grid := spatial.NewGrid(250)
	warm := NewCache(grid, model)
	pool := par.New(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(99))
	for id := int32(0); id < 90; id++ {
		grid.Update(id, geom.V(rng.Float64()*2500, rng.Float64()*600))
	}
	for epoch := 0; epoch < 5; epoch++ {
		warm.RebuildSweep(pool)
		for id := int32(0); id < 90; id++ {
			if id%4 == 0 {
				grid.Update(id, geom.V(rng.Float64()*2500, rng.Float64()*600))
			}
		}
	}
	warm.RebuildSweep(pool)
	cold := NewCache(grid, model)
	cold.RebuildSweep(par.Seq)
	for id := int32(0); id < 90; id++ {
		want, got := warm.Links(id), cold.Links(id)
		if len(want) != len(got) {
			t.Fatalf("node %d: cold sweep %d links, warm %d", id, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("node %d link %d: cold %+v, warm %+v", id, i, got[i], want[i])
			}
		}
	}
}
