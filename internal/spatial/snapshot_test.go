package spatial

import (
	"math"
	"math/rand"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
)

// churnGrid builds a grid with random inserts, moves and removes so the
// dense arrays hold tombstones and cells hold move-reordered lists.
func churnGrid(rng *rand.Rand, n int, span float64) *Grid {
	g := NewGrid(120)
	for id := int32(0); id < int32(n); id++ {
		g.Update(id, geom.V(rng.Float64()*span, rng.Float64()*span))
	}
	for k := 0; k < n*2; k++ {
		id := int32(rng.Intn(n))
		switch rng.Intn(4) {
		case 0:
			g.Remove(id)
		default:
			g.Update(id, geom.V(rng.Float64()*span, rng.Float64()*span))
		}
	}
	// a few items sharing one position
	if n >= 8 {
		tie := geom.V(span/3, span/3)
		g.Update(int32(n-1), tie)
		g.Update(int32(n-3), tie)
		g.Update(int32(n-5), tie)
	}
	return g
}

// TestSnapshotMirrorsGrid checks the CSR view cell by cell against the
// grid's own table: occupied cells only, sorted keys, members in cell list
// order, positions aligned.
func TestSnapshotMirrorsGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := churnGrid(rng, 200, 2000)
	s := g.Snapshot()
	if s.Epoch != g.Epoch() {
		t.Fatalf("snapshot epoch %d != grid epoch %d", s.Epoch, g.Epoch())
	}
	occupied := 0
	for _, items := range g.cells {
		if len(items) > 0 {
			occupied++
		}
	}
	if len(s.Cells) != occupied {
		t.Fatalf("snapshot has %d cells, grid has %d occupied", len(s.Cells), occupied)
	}
	total := 0
	for i, c := range s.Cells {
		if i > 0 {
			prev := s.Cells[i-1]
			if c.CX < prev.CX || (c.CX == prev.CX && c.CY <= prev.CY) {
				t.Fatalf("cells not strictly sorted at %d: %+v after %+v", i, c, prev)
			}
		}
		want := g.CellList(c.CX, c.CY)
		got := s.IDs[c.Start:c.End]
		if len(got) != len(want) {
			t.Fatalf("cell (%d,%d): %d members, want %d", c.CX, c.CY, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("cell (%d,%d) member %d: id %d, want %d (list order must survive)", c.CX, c.CY, k, got[k], want[k])
			}
			if s.Pos[int(c.Start)+k] != g.pos[want[k]] {
				t.Fatalf("cell (%d,%d) member %d: position misaligned", c.CX, c.CY, k)
			}
		}
		total += len(got)
	}
	if total != g.count || len(s.IDs) != g.count || len(s.Pos) != g.count {
		t.Fatalf("snapshot holds %d ids / %d pos over %d spans, grid has %d items", len(s.IDs), len(s.Pos), total, g.count)
	}
	// memoized: same epoch hands back the same value without a rebuild
	if again := g.Snapshot(); again != s {
		t.Fatal("second Snapshot in one epoch returned a different value")
	}
	// invalidated by any geometric change
	g.Update(3, geom.V(5000, 5000))
	if s2 := g.Snapshot(); s2.Epoch != g.Epoch() {
		t.Fatalf("post-move snapshot stuck at epoch %d, grid at %d", s2.Epoch, g.Epoch())
	}
}

// TestSnapshotSearch pins the binary search: for every cell, Search finds
// it; for gaps, Search lands on the next cell.
func TestSnapshotSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := churnGrid(rng, 120, 1500)
	s := g.Snapshot()
	for i, c := range s.Cells {
		if got := s.Search(c.CX, c.CY); got != i {
			t.Fatalf("Search(%d,%d) = %d, want %d", c.CX, c.CY, got, i)
		}
	}
	if got := s.Search(math.MaxInt32, math.MaxInt32); got != len(s.Cells) {
		t.Fatalf("Search past the end = %d, want %d", got, len(s.Cells))
	}
}

// TestSnapshotSteadyStateAllocs pins the arena contract: once the backing
// arrays have grown to the world's size, per-epoch snapshot rebuilds do not
// allocate.
func TestSnapshotSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := churnGrid(rng, 300, 2500)
	// Anchor two cells so the toggled item below never creates or empties a
	// cell — the pin is about the snapshot's arenas, not the grid's table.
	g.Update(300, geom.V(50, 50))
	g.Update(301, geom.V(550, 550))
	g.Snapshot() // warm the arenas
	flip := false
	allocs := testing.AllocsPerRun(100, func() {
		if flip {
			g.Update(1, geom.V(60, 60)) // advance the epoch
		} else {
			g.Update(1, geom.V(560, 560))
		}
		flip = !flip
		g.Snapshot()
	})
	if allocs > 0 {
		t.Fatalf("steady-state snapshot rebuild allocates %.1f objects/op, want 0", allocs)
	}
}
