package radio

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/channel"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/spatial"
)

// arenaWorld is a 200-node highway strip dense enough that the arena grows
// several times while one epoch's hoods are built.
func arenaWorld() (*spatial.Grid, *Cache, channel.Model) {
	model := channel.UnitDisk{Range: 250}
	grid := spatial.NewGrid(model.MaxRange())
	rng := rand.New(rand.NewSource(17))
	for id := int32(0); id < 200; id++ {
		grid.Update(id, geom.V(rng.Float64()*3000, rng.Float64()*30))
	}
	return grid, NewCache(grid, model), model
}

// TestLinksSurviveArenaGrowth: a slice Links returned stays valid for the
// rest of its epoch, however often later builds grow the arena under it.
func TestLinksSurviveArenaGrowth(t *testing.T) {
	_, c, _ := arenaWorld()
	held := c.Links(0)
	want := slices.Clone(held)
	if len(want) == 0 {
		t.Fatal("node 0 has no links; the world is too sparse to test anything")
	}
	caps := map[int]bool{cap(c.arena): true}
	for id := int32(1); id < 200; id++ {
		c.Links(id)
		caps[cap(c.arena)] = true
	}
	if len(caps) < 3 {
		t.Fatalf("the arena grew %d times over 200 builds; the test needs it to grow", len(caps)-1)
	}
	if !slices.Equal(held, want) {
		t.Fatal("a slice from Links(0) changed when later builds in its epoch grew the arena")
	}
	if again := c.Links(0); !slices.Equal(again, want) {
		t.Fatalf("Links(0) later in its epoch = %v, want %v", again, want)
	}
}

// TestEpochChangeRebuildsEveryHood: after the grid changes, no hood is
// served from the previous epoch's arena — every node that asks is rebuilt
// and reads the new geometry, including a node whose neighbourhood the
// change did not touch and one that left.
func TestEpochChangeRebuildsEveryHood(t *testing.T) {
	grid, c, model := arenaWorld()
	for id := int32(0); id < 200; id++ {
		c.Links(id)
	}
	for round := 0; round < 3; round++ {
		builds := c.Builds()
		grid.Update(int32(round), geom.V(1500+float64(round), 15))
		grid.Remove(int32(100 + round))
		// ask in reverse order, so each hood lands elsewhere in the arena
		for id := int32(199); id >= 0; id-- {
			if got, want := c.Links(id), referenceLinks(grid, model, id); !slices.Equal(got, want) {
				t.Fatalf("round %d node %d: %d links, want %d (%v, want %v)", round, id, len(got), len(want), got, want)
			}
		}
		if got := c.Builds() - builds; got != 200 {
			t.Fatalf("round %d: %d hoods rebuilt after the grid changed, want all 200", round, got)
		}
	}
}
