package spatial

import (
	"math/rand"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
)

// TestStageCommitMatchesUpdate drives two grids through the same random
// walk — one via Update, one via the Stage/Commit protocol the world's
// step loop uses — and checks they answer every query the same.
// The only sanctioned difference is the epoch counter: Update bumps it per
// geometric change, Stage/Commit leaves it for one AdvanceEpoch per tick.
func TestStageCommitMatchesUpdate(t *testing.T) {
	ref := NewGrid(100)
	two := NewGrid(100)
	rng := rand.New(rand.NewSource(42))
	const n = 40
	pos := make([]geom.Vec2, n)
	for id := int32(0); id < n; id++ {
		pos[id] = geom.V(rng.Float64()*1000, rng.Float64()*1000)
		ref.Update(id, pos[id])
		two.Update(id, pos[id])
	}
	for step := 0; step < 50; step++ {
		var moves []Move
		anyChanged := false
		for id := int32(0); id < n; id++ {
			// mix of no-op, intra-cell jitter, and cross-cell jumps
			switch rng.Intn(3) {
			case 1:
				pos[id] = pos[id].Add(geom.V(rng.Float64()*5, rng.Float64()*5))
			case 2:
				pos[id] = geom.V(rng.Float64()*1000, rng.Float64()*1000)
			}
			ref.Update(id, pos[id])
			changed, mv, cross, ok := two.Stage(id, pos[id])
			if !ok {
				t.Fatalf("step %d: Stage(%d) reported unknown id", step, id)
			}
			anyChanged = anyChanged || changed
			if cross {
				moves = append(moves, mv)
			}
		}
		for _, mv := range moves {
			two.Commit(mv)
		}
		if anyChanged {
			two.AdvanceEpoch()
		}
		for id := int32(0); id < n; id++ {
			rp, _ := ref.Position(id)
			tp, ok := two.Position(id)
			if !ok || rp != tp {
				t.Fatalf("step %d: Position(%d) = %v/%v, want %v", step, id, tp, ok, rp)
			}
			want := ref.Within(rp, 150, nil)
			got := two.Within(tp, 150, nil)
			if len(want) != len(got) {
				t.Fatalf("step %d id %d: Within sizes %d != %d", step, id, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("step %d id %d: Within[%d] = %d, want %d (cell-list order diverged)", step, id, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStageUnknownAndRemoved pins Stage's guard results: unknown ids and
// removed ids report ok=false and stage nothing.
func TestStageUnknownAndRemoved(t *testing.T) {
	g := NewGrid(100)
	if _, _, _, ok := g.Stage(0, geom.V(1, 1)); ok {
		t.Fatal("Stage on empty grid reported ok")
	}
	g.Update(0, geom.V(1, 1))
	g.Remove(0)
	if _, _, _, ok := g.Stage(0, geom.V(2, 2)); ok {
		t.Fatal("Stage on removed id reported ok")
	}
}

// TestAdvanceEpochBumpsOnce pins the tick contract the memo layers rely
// on: Stage and Commit never move the epoch; one AdvanceEpoch moves it by
// exactly one.
func TestAdvanceEpochBumpsOnce(t *testing.T) {
	g := NewGrid(100)
	g.Update(0, geom.V(10, 10))
	e0 := g.Epoch()
	changed, mv, cross, ok := g.Stage(0, geom.V(510, 510))
	if !ok || !changed || !cross {
		t.Fatalf("Stage = changed %v cross %v ok %v, want a cross-cell move", changed, cross, ok)
	}
	if g.Epoch() != e0 {
		t.Fatalf("Stage moved the epoch: %d -> %d", e0, g.Epoch())
	}
	g.Commit(mv)
	if g.Epoch() != e0 {
		t.Fatalf("Commit moved the epoch: %d -> %d", e0, g.Epoch())
	}
	g.AdvanceEpoch()
	if g.Epoch() != e0+1 {
		t.Fatalf("AdvanceEpoch moved the epoch %d -> %d, want +1", e0, g.Epoch())
	}
}
