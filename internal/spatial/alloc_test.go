package spatial

import (
	"testing"

	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/geom"
)

// Range queries over a warmed index must not allocate: positions live in a
// dense slice and the caller passes a reusable result buffer.
func TestWithinAllocFree(t *testing.T) {
	g := NewGrid(250)
	for i := int32(0); i < 200; i++ {
		g.Update(i, geom.V(float64(i)*10, 0))
	}
	dst := make([]int32, 0, 256)
	allocs := testing.AllocsPerRun(1000, func() {
		dst = g.Within(geom.V(1000, 0), 250, dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("Within allocates %.1f objects/op with a pre-sized dst, want 0", allocs)
	}
}

// Moving an already-indexed item must not allocate unless it enters a cell
// outside the table's box or outgrows a cell list's capacity.
func TestUpdateMoveAllocFree(t *testing.T) {
	g := NewGrid(250)
	for i := int32(0); i < 200; i++ {
		g.Update(i, geom.V(float64(i)*10, 0))
	}
	x := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		g.Update(7, geom.V(70+x, 0))
		x += 0.1
		if x > 50 {
			x = 0
		}
	})
	if allocs != 0 {
		t.Fatalf("in-cell Update allocates %.1f objects/op, want 0", allocs)
	}
}

// DigestInto walks the table in storage order, which is the canonical
// (cx, cy) order, so it needs no key list and no sort: a checkpoint trail
// folds the grid at every point without allocating.
func TestDigestAllocFree(t *testing.T) {
	g := NewGrid(250)
	for i := int32(0); i < 200; i++ {
		g.Update(i, geom.V(float64(i)*37-2000, float64(i%5)*300-600))
	}
	d := digest.New()
	allocs := testing.AllocsPerRun(100, func() { g.DigestInto(d) })
	if allocs != 0 {
		t.Fatalf("DigestInto allocates %.1f objects/op, want 0", allocs)
	}
}

// The box grows geometrically on the side a new cell falls outside: a
// 100 km highway filled from one end, 400 columns of 250 m cells, re-lays
// the table out once per doubling of its width — 1 → 2 → … → 512.
func TestBoxGrowsGeometrically(t *testing.T) {
	for _, dir := range []float64{1, -1} {
		g := NewGrid(250)
		growths := 0
		for i := 0; i < 4000; i++ {
			n := len(g.cells)
			g.Update(int32(i), geom.V(dir*float64(i)*25, float64(i%4)*3.5))
			if n > 0 && len(g.cells) != n {
				growths++
			}
		}
		if g.nx != 512 || g.ny != 1 || growths != 9 {
			t.Fatalf("direction %v: box %d×%d after %d growths, want 512×1 after 9", dir, g.nx, g.ny, growths)
		}
	}
}
