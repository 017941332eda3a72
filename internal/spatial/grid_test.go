package spatial

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/vanetlab/relroute/internal/geom"
)

func TestUpdateAndPosition(t *testing.T) {
	g := NewGrid(100)
	g.Update(1, geom.V(10, 10))
	p, ok := g.Position(1)
	if !ok || p != geom.V(10, 10) {
		t.Fatalf("position = %v,%v", p, ok)
	}
	g.Update(1, geom.V(500, 500)) // crosses cells
	p, _ = g.Position(1)
	if p != geom.V(500, 500) {
		t.Fatalf("moved position = %v", p)
	}
	if g.count != 1 {
		t.Fatalf("len = %d", g.count)
	}
}

func TestRemove(t *testing.T) {
	g := NewGrid(100)
	g.Update(1, geom.V(0, 0))
	g.Update(2, geom.V(1, 1))
	g.Remove(1)
	if _, ok := g.Position(1); ok {
		t.Fatal("removed item still present")
	}
	if g.count != 1 {
		t.Fatalf("len = %d", g.count)
	}
	g.Remove(99) // unknown: no-op
	got := g.Within(geom.V(0, 0), 10, nil)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("within = %v", got)
	}
}

func TestWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewGrid(250)
	type item struct {
		id int32
		p  geom.Vec2
	}
	var items []item
	for i := int32(0); i < 300; i++ {
		p := geom.V(rng.Float64()*3000-500, rng.Float64()*3000-500)
		g.Update(i, p)
		items = append(items, item{i, p})
	}
	for trial := 0; trial < 50; trial++ {
		q := geom.V(rng.Float64()*3000-500, rng.Float64()*3000-500)
		r := rng.Float64() * 600
		got := g.Within(q, r, nil)
		var want []int32
		for _, it := range items {
			if it.p.Dist(q) <= r {
				want = append(want, it.id)
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d items, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}

func TestWithinNegativeRadius(t *testing.T) {
	g := NewGrid(10)
	g.Update(1, geom.V(0, 0))
	if got := g.Within(geom.V(0, 0), -1, nil); len(got) != 0 {
		t.Fatalf("negative radius returned %v", got)
	}
}

func TestMoveWithinSameCell(t *testing.T) {
	g := NewGrid(1000)
	g.Update(1, geom.V(10, 10))
	g.Update(1, geom.V(20, 20)) // same cell
	got := g.Within(geom.V(20, 20), 1, nil)
	if len(got) != 1 {
		t.Fatalf("within after same-cell move = %v", got)
	}
}

func TestGridInvariantLenConsistent(t *testing.T) {
	// property: after a random sequence of updates/removes, Len matches
	// the distinct live ids
	f := func(ops []uint8) bool {
		g := NewGrid(50)
		live := map[int32]bool{}
		for i, op := range ops {
			id := int32(op % 16)
			if op%3 == 0 {
				g.Remove(id)
				delete(live, id)
			} else {
				g.Update(id, geom.V(float64(i*7%300), float64(i*13%300)))
				live[id] = true
			}
		}
		return g.count == len(live)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
