package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// scoredWorld is a started world whose ticket routers score a link by
// looking its neighbor up in scores, and log every neighbor they score.
type scoredWorld struct {
	routers []*TicketRouter
	scores  map[netstack.NodeID]float64
	scored  []netstack.NodeID
}

func newScoredWorld(t *testing.T, vehicles []routetest.Vehicle) *scoredWorld {
	t.Helper()
	sw := &scoredWorld{scores: make(map[netstack.NodeID]float64)}
	factory := NewTicketRouter(WithScorer("scored", func(_ *netstack.API, nb netstack.Neighbor) float64 {
		sw.scored = append(sw.scored, nb.ID)
		return sw.scores[nb.ID]
	}))
	w, _ := routetest.World(t, 1, vehicles, func() netstack.Router {
		r := factory().(*TicketRouter)
		sw.routers = append(sw.routers, r)
		return r
	})
	w.StartRun()
	t.Cleanup(w.EndRun)
	advance(t, w, 2.05) // everyone has beaconed twice
	return sw
}

// TestCandidatesScoreOnlyWhatCanBeChosen counts scorer calls on a chain
// 0 … 4, 100 m apart, seen from the middle; vehicle 5 rides level with the
// observer.
func TestCandidatesScoreOnlyWhatCanBeChosen(t *testing.T) {
	vehicles := append(routetest.Chain(5, 100, 20), routetest.Vehicle{Pos: geom.V(200, 0), Vel: geom.V(20, 0)})
	sw := newScoredWorld(t, vehicles)
	r := sw.routers[2]
	if n := len(r.API.LinkStates()); n != 5 {
		t.Fatalf("observer has %d links, want 5", n)
	}
	for id := range vehicles {
		sw.scores[netstack.NodeID(id)] = 10
	}
	for _, tc := range []struct {
		name   string
		dst    netstack.NodeID
		path   []netstack.NodeID
		scored []netstack.NodeID
	}{
		{"behind and level make no progress", 4, []netstack.NodeID{2}, []netstack.NodeID{3, 4}},
		{"on the path", 4, []netstack.NodeID{2, 3}, []netstack.NodeID{4}},
		{"a destination that makes no progress itself", 5, []netstack.NodeID{2}, []netstack.NodeID{5}},
		{"position unknown: everyone off the path", 99, []netstack.NodeID{2, 1}, []netstack.NodeID{0, 3, 4, 5}},
	} {
		sw.scored = sw.scored[:0]
		cands := r.candidates(tc.dst, tc.path)
		slices.Sort(sw.scored)
		if !slices.Equal(sw.scored, tc.scored) {
			t.Errorf("%s: scored %v, want %v", tc.name, sw.scored, tc.scored)
		}
		if len(cands) != len(tc.scored) {
			t.Errorf("%s: %d candidates of %d scored links, all above the threshold", tc.name, len(cands), len(tc.scored))
		}
	}
}

// scoreEverything is candidates as it was: every neighbor off the path is
// scored before the progress test can discard it, and sort.Slice ranks.
func scoreEverything(r *TicketRouter, scores map[netstack.NodeID]float64, dst netstack.NodeID, path []netstack.NodeID) (out []candidate, scored int) {
	dstPos, _, havePos := r.API.LookupPosition(dst)
	selfD := 0.0
	if havePos {
		selfD = r.API.Pos().Dist(dstPos)
	}
	for _, nb := range r.API.LinkStates() {
		if onPath(path, nb.ID) {
			continue
		}
		scored++
		s := scores[nb.ID]
		if s < stabilityThreshold {
			continue
		}
		prog := 0.0
		if havePos {
			prog = selfD - nb.Pos.Dist(dstPos)
			if nb.ID != dst && prog <= 0 {
				continue
			}
		}
		out = append(out, candidate{id: nb.ID, stability: s, progress: prog})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].stability != out[j].stability {
			return out[i].stability > out[j].stability
		}
		if out[i].progress != out[j].progress {
			return out[i].progress > out[j].progress
		}
		return out[i].id < out[j].id
	})
	return out, scored
}

// TestCandidatesMatchScoreEverything draws 1,000 tables — 20 worlds of
// scattered vehicles × 50 draws of scores (few values, so ties reach the
// progress and ID keys), path and destination, its position known to the
// location service or not — and requires the ranked list of the reference.
func TestCandidatesMatchScoreEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var calls, scored, refScored int
	for world := 0; world < 20; world++ {
		vehicles := make([]routetest.Vehicle, 12+rng.Intn(24))
		for i := 1; i < len(vehicles); i++ {
			vehicles[i].Pos = geom.V(600*rng.Float64()-300, 40*rng.Float64()-20)
		}
		sw := newScoredWorld(t, vehicles)
		r := sw.routers[0]
		for draw := 0; draw < 50; draw++ {
			path := []netstack.NodeID{r.API.Self()}
			for id := 1; id < len(vehicles); id++ {
				sw.scores[netstack.NodeID(id)] = float64(rng.Intn(7))
				if rng.Intn(5) == 0 {
					path = append(path, netstack.NodeID(id))
				}
			}
			dst := netstack.NodeID(len(vehicles) + 5) // nobody: position unknown
			if draw%2 == 0 {
				dst = netstack.NodeID(1 + rng.Intn(len(vehicles)-1))
			}
			sw.scored = sw.scored[:0]
			got := r.candidates(dst, path)
			want, all := scoreEverything(r, sw.scores, dst, path)
			if !slices.Equal(got, want) {
				t.Fatalf("world %d draw %d (dst %d, path %v):\n got %v\nwant %v", world, draw, dst, path, got, want)
			}
			if len(sw.scored) > all || len(sw.scored) < len(got) {
				t.Fatalf("world %d draw %d: scored %d links; %d are off the path, %d are candidates", world, draw, len(sw.scored), all, len(got))
			}
			calls, scored, refScored = calls+1, scored+len(sw.scored), refScored+all
		}
	}
	t.Logf("%d calls: %.1f links scored per call, %.1f when every link off the path is", calls,
		float64(scored)/float64(calls), float64(refScored)/float64(calls))
}
