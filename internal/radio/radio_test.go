package radio

import (
	"math/rand"
	"testing"

	"github.com/vanetlab/relroute/internal/channel"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/prob"
	"github.com/vanetlab/relroute/internal/spatial"
)

// TestLinksMatchesGridWithin pins the determinism contract: the cached
// neighborhood must list exactly the receivers a fresh grid scan returns,
// in the same order, with distances computed by the same expression.
func TestLinksMatchesGridWithin(t *testing.T) {
	grid := spatial.NewGrid(250)
	model := channel.UnitDisk{Range: 250}
	c := NewCache(grid, model)
	rng := rand.New(rand.NewSource(7))
	for id := int32(0); id < 60; id++ {
		grid.Update(id, geom.V(rng.Float64()*2000, rng.Float64()*40))
	}
	for id := int32(0); id < 60; id++ {
		links := c.Links(id)
		pos, _ := grid.Position(id)
		want := grid.Within(pos, model.MaxRange(), nil)
		j := 0
		for _, rx := range want {
			if rx == id {
				continue
			}
			if j >= len(links) {
				t.Fatalf("node %d: cache has %d links, grid scan found more (next %d)", id, len(links), rx)
			}
			lk := links[j]
			if lk.To != rx {
				t.Fatalf("node %d link %d: cached receiver %d, grid scan order says %d", id, j, lk.To, rx)
			}
			rxPos, _ := grid.Position(rx)
			if d := rxPos.Dist(pos); lk.Dist != d {
				t.Fatalf("node %d→%d: cached dist %v != %v", id, rx, lk.Dist, d)
			}
			j++
		}
		if j != len(links) {
			t.Fatalf("node %d: cache has %d extra links", id, len(links)-j)
		}
	}
}

// TestEpochInvalidation moves a vehicle across a cell boundary and asserts
// the cache refreshes: the mover's own list and its old/new neighbors'
// lists all reflect the new geometry.
func TestEpochInvalidation(t *testing.T) {
	grid := spatial.NewGrid(250)
	c := NewCache(grid, channel.UnitDisk{Range: 250})
	grid.Update(0, geom.V(100, 0))
	grid.Update(1, geom.V(200, 0))  // neighbor of 0 before the move
	grid.Update(2, geom.V(1200, 0)) // far away until 0 moves next to it

	has := func(links []Link, id int32) bool {
		for _, lk := range links {
			if lk.To == id {
				return true
			}
		}
		return false
	}
	if l := c.Links(0); !has(l, 1) || has(l, 2) {
		t.Fatalf("before move: links(0) = %v", l)
	}
	if l := c.Links(2); has(l, 0) {
		t.Fatalf("before move: links(2) = %v", l)
	}
	builds := c.Builds()

	// cross several cell boundaries: 100 → 1100
	grid.Update(0, geom.V(1100, 0))
	if l := c.Links(0); has(l, 1) || !has(l, 2) {
		t.Fatalf("after move: links(0) = %v, want only node 2", l)
	}
	if l := c.Links(2); !has(l, 0) {
		t.Fatal("after move: node 2 does not see node 0")
	}
	if l := c.Links(1); has(l, 0) {
		t.Fatal("after move: node 1 still sees node 0")
	}
	if c.Builds() == builds {
		t.Fatal("move did not trigger any rebuild")
	}

	// a same-cell move must also refresh distances
	grid.Update(0, geom.V(1150, 0))
	l := c.Links(2)
	if !has(l, 0) {
		t.Fatal("same-cell move lost the link")
	}
	for _, lk := range l {
		if lk.To == 0 && lk.Dist != 50 {
			t.Fatalf("same-cell move: cached dist %v, want 50", lk.Dist)
		}
	}
}

// TestLinksAmortized: repeated queries in one epoch pay for one rebuild.
func TestLinksAmortized(t *testing.T) {
	grid := spatial.NewGrid(250)
	c := NewCache(grid, channel.UnitDisk{Range: 250})
	for id := int32(0); id < 10; id++ {
		grid.Update(id, geom.V(float64(id)*50, 0))
	}
	for i := 0; i < 100; i++ {
		c.Links(3)
	}
	if c.Builds() != 1 {
		t.Fatalf("100 same-epoch queries cost %d rebuilds, want 1", c.Builds())
	}
	grid.Update(0, geom.V(10, 0)) // epoch bump
	c.Links(3)
	if c.Builds() != 2 {
		t.Fatalf("post-move query cost %d rebuilds, want 2", c.Builds())
	}
}

// TestRemovedNodeLeavesNeighborhoods: a node removed from the grid (left
// the simulation, failure injection) must disappear from every cached
// neighborhood before the next transmission — it must never be handed a
// reception at a stale or zero position.
func TestRemovedNodeLeavesNeighborhoods(t *testing.T) {
	grid := spatial.NewGrid(250)
	c := NewCache(grid, channel.UnitDisk{Range: 250})
	grid.Update(0, geom.V(0, 0))
	grid.Update(1, geom.V(100, 0))
	if len(c.Links(0)) != 1 {
		t.Fatalf("links(0) = %v, want node 1", c.Links(0))
	}
	grid.Remove(1)
	if l := c.Links(0); len(l) != 0 {
		t.Fatalf("links(0) after removal = %v, want empty", l)
	}
	// and a transmitter the grid does not track has no receivers at all
	if l := c.Links(1); len(l) != 0 {
		t.Fatalf("links of removed node = %v, want empty", l)
	}
}

// TestDecodableMatchesModel pins that deciding a cached link is the
// model's own Decodable at the link's distance, for both channel models:
// exactly the same verdicts from exactly the same RNG draws.
func TestDecodableMatchesModel(t *testing.T) {
	models := map[string]channel.Model{
		"unitdisk":  channel.UnitDisk{Range: 250},
		"shadowing": channel.NewShadowing(prob.DefaultReceiptModel()),
	}
	for name, model := range models {
		t.Run(name, func(t *testing.T) {
			grid := spatial.NewGrid(model.MaxRange())
			c := NewCache(grid, model)
			posRng := rand.New(rand.NewSource(11))
			for id := int32(0); id < 40; id++ {
				grid.Update(id, geom.V(posRng.Float64()*1500, 0))
			}
			rngA := rand.New(rand.NewSource(99))
			rngB := rand.New(rand.NewSource(99))
			for id := int32(0); id < 40; id++ {
				for _, lk := range c.Links(id) {
					got := c.Decodable(lk, rngA)
					want := model.Decodable(lk.Dist, rngB)
					if got != want {
						t.Fatalf("link %d→%d (d=%v): cached verdict %v, model says %v", id, lk.To, lk.Dist, got, want)
					}
				}
			}
			// equal residual streams prove equal draw consumption
			for i := 0; i < 8; i++ {
				if a, b := rngA.Float64(), rngB.Float64(); a != b {
					t.Fatalf("RNG streams diverged after deciding links: %v != %v", a, b)
				}
			}
		})
	}
}
