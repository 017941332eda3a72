package core

import (
	"fmt"
	"testing"
	"unsafe"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/netstack"
)

// memoWorld is a started world of playback vehicles with ticket routers,
// returned in vehicle order. Vehicle 0 is the observer of the memo tests:
// it stands at the origin until moveAt, then drives east.
func memoWorld(t testing.TB, moveAt float64, others []geom.Vec2, vel geom.Vec2) (*netstack.World, []*TicketRouter) {
	t.Helper()
	tracks := []mobility.Track{{ID: 0, Class: mobility.Car, Waypoints: []mobility.Waypoint{
		{T: 0}, {T: moveAt}, {T: 1000, Pos: geom.V(10*(1000-moveAt), 0), Speed: 10},
	}}}
	for i, pos := range others {
		tracks = append(tracks, mobility.Track{ID: mobility.VehicleID(i + 1), Class: mobility.Car, Waypoints: []mobility.Waypoint{
			{T: 0, Pos: pos, Speed: vel.Len()},
			{T: 1000, Pos: pos.Add(vel.Scale(1000)), Speed: vel.Len()},
		}})
	}
	w := netstack.NewWorld(netstack.Config{Seed: 1}, mobility.NewPlayback(tracks))
	var routers []*TicketRouter
	factory := NewTicketRouter()
	w.AddVehicleNodes(func() netstack.Router {
		r := factory().(*TicketRouter)
		routers = append(routers, r)
		return r
	})
	w.StartRun()
	return w, routers
}

func advance(t testing.TB, w *netstack.World, to float64) {
	t.Helper()
	if err := w.AdvanceTo(to); err != nil {
		t.Fatal(err)
	}
}

// TestStabilityMemoInvalidation poisons the memo after filling it: a hit
// returns the poison, and everything that changes an end of a link must
// bring the fresh value back.
func TestStabilityMemoInvalidation(t *testing.T) {
	const poison = -1
	w, routers := memoWorld(t, 12, []geom.Vec2{geom.V(100, 0), geom.V(-120, 3)}, geom.V(0.5, 0))
	r := routers[0]
	fresh := func(ls netstack.LinkState) float64 {
		return linkStateStability(r.API, r.metric, ls)
	}
	// scoreAll scores every link, requires the fresh value, then poisons;
	// the memo holds one entry per neighbor scored since the observer moved.
	scoreAll := func(when string, links, entries int) {
		t.Helper()
		states := r.API.AppendLinkStates(nil)
		if len(states) != links {
			t.Fatalf("%s: %d links, want %d", when, len(states), links)
		}
		for _, ls := range states {
			if got, want := r.stability(ls), fresh(ls); got != want || want <= 0 {
				t.Fatalf("%s: stability(%d) = %v, fresh value %v", when, ls.ID, got, want)
			}
		}
		if len(r.memo) != entries {
			t.Fatalf("%s: memo holds %d entries, want %d", when, len(r.memo), entries)
		}
		for i := range r.memo {
			r.memo[i].val = poison
		}
	}

	if r.memo != nil {
		t.Fatal("memo allocated before the first score")
	}
	advance(t, w, 2.05)
	scoreAll("first read", 2, 2)
	for _, ls := range r.API.AppendLinkStates(nil) {
		if got := r.stability(ls); got != poison {
			t.Fatalf("unchanged link %d was recomputed: %v", ls.ID, got)
		}
	}

	// both neighbors beacon again; the observer has not moved
	pos := r.API.Pos()
	advance(t, w, 3.3)
	if r.API.Pos() != pos {
		t.Fatal("observer moved before moveAt")
	}
	scoreAll("neighbors beaconed again", 2, 2)

	// a forgotten neighbor heard again is a new link: its count restarts
	r.API.ForgetNeighbor(1)
	if r.API.HasNeighbor(1) {
		t.Fatal("neighbor 1 still in the table")
	}
	advance(t, w, 4.4)
	if ls, ok := r.API.LinkState(1); !ok || ls.Beacons != 1 {
		t.Fatalf("neighbor 1 after forget + beacon: %+v, %v", ls, ok)
	}
	scoreAll("forgotten and heard again", 2, 2)

	// neighbor 2 falls silent until it expires, then comes back
	w.CrashNode(2)
	advance(t, w, 8)
	scoreAll("neighbor 2 expired", 1, 2)
	w.RecoverNode(2)
	advance(t, w, 9.5)
	scoreAll("neighbor 2 back", 2, 2)

	// the observer drives off: nothing remembered from where it stood
	advance(t, w, 12.35)
	if r.API.Pos() == pos {
		t.Fatal("observer did not move")
	}
	held := cap(r.memo)
	scoreAll("observer moved", 2, 2)
	if cap(r.memo) != held {
		t.Fatalf("memo reallocated on an observer move: cap %d → %d", held, cap(r.memo))
	}

	// one tick on, the observer has moved and nobody has beaconed: only
	// the move makes the remembered values stale
	heard := r.API.AppendLinkStates(nil)
	pos = r.API.Pos()
	advance(t, w, 12.45)
	if r.API.Pos() == pos {
		t.Fatal("observer did not move in a tick")
	}
	for _, ls := range heard {
		if now, ok := r.API.LinkState(ls.ID); !ok || now.Beacons != ls.Beacons || now.LastSeen != ls.LastSeen {
			t.Fatalf("neighbor %d beaconed within the tick: the step tests nothing", ls.ID)
		}
	}
	scoreAll("observer moved, no beacon", 2, 2)

	// routers that never scored a link hold nothing
	if routers[1].memo != nil || routers[2].memo != nil {
		t.Fatal("memo allocated in a router that never scored")
	}
}

// TestStabilityMemoOnlyForProbabilityMetrics: the deterministic metric
// reads more than the memo's key stands for, so it never fills the memo; a
// scorer is handed the probability metric through it.
func TestStabilityMemoOnlyForProbabilityMetrics(t *testing.T) {
	w, routers := memoWorld(t, 1000, []geom.Vec2{geom.V(100, 0)}, geom.V(0.5, 0))
	advance(t, w, 2.05)
	r := routers[0]
	ls, ok := r.API.LinkState(1)
	if !ok {
		t.Fatal("no link to vehicle 1")
	}
	r.metric = MetricDeterministic
	r.stability(ls)
	if r.memo != nil {
		t.Fatal("memo used by the deterministic metric")
	}
	r.metric, r.scorer = MetricMeanDuration, func(_ *netstack.API, _ netstack.Neighbor, s float64) float64 { return s + 7 }
	want := linkStateStability(r.API, MetricMeanDuration, ls) + 7
	if got := r.stability(ls); got != want {
		t.Fatalf("scorer result %v, want %v", got, want)
	}
	if len(r.memo) != 1 || r.memo[0].val+7 != want {
		t.Fatalf("memo %+v does not hold the metric the scorer read", r.memo)
	}
}

func TestStabilityMemoEntrySize(t *testing.T) {
	if size := unsafe.Sizeof(stabilityMemo{}); size > 32 {
		t.Fatalf("memo entry is %d bytes, want ≤ 32: the entry size is what keeps the allocation rate flat", size)
	}
}

// BenchmarkTicketCandidates is one candidates call over a 30-neighbor
// table: cold (the observer moved since the last call) for the best one,
// the best three and every candidate, the last integrating every link; and
// repeated within a mobility epoch (every link scored is remembered).
func BenchmarkTicketCandidates(b *testing.B) {
	var others []geom.Vec2
	for i := 0; i < 30; i++ {
		others = append(others, geom.V(float64(8*i-120), float64(3*(i%3))))
	}
	w, routers := memoWorld(b, 1000, others, geom.V(1.5, 0))
	advance(b, w, 2.05)
	r := routers[0]
	path := []netstack.NodeID{r.API.Self()}
	var ranked [rankBuf]candidate
	if n := len(r.candidates(31, path, len(others), nil)); n < 25 {
		b.Fatalf("%d candidates of 30 neighbors", n)
	}
	for _, k := range []int{1, 3} {
		b.Run(fmt.Sprintf("cold/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.memo = r.memo[:0]
				r.candidates(31, path, k, ranked[:0])
			}
		})
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.memo = r.memo[:0]
			r.candidates(31, path, len(others), ranked[:0])
		}
	})
	b.Run("repeat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.candidates(31, path, len(others), ranked[:0])
		}
	})
}
