package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// scoredWorld is a started world whose ticket routers score a link by
// looking its neighbor up in scores, whatever the metric reads, and log
// every neighbor they score — once for its bound, and again if it is
// integrated.
type scoredWorld struct {
	routers []*TicketRouter
	scores  map[netstack.NodeID]float64
	scored  []netstack.NodeID
}

func newScoredWorld(t *testing.T, vehicles []routetest.Vehicle) *scoredWorld {
	t.Helper()
	sw := &scoredWorld{scores: make(map[netstack.NodeID]float64)}
	factory := NewTicketRouter(WithScorer(func(_ *netstack.API, nb netstack.Neighbor, _ float64) float64 {
		sw.scored = append(sw.scored, nb.ID)
		return sw.scores[nb.ID]
	}))
	w, _ := routetest.World(t, 1, vehicles, func() netstack.Router {
		r := factory().(*TicketRouter)
		sw.routers = append(sw.routers, r)
		return r
	})
	w.StartRun()
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
	if n := len(r.API.AppendLinkStates(nil)); n != 5 {
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
		cands := r.candidates(tc.dst, tc.path, len(vehicles), nil)
		slices.Sort(sw.scored)
		if sw.scored = slices.Compact(sw.scored); !slices.Equal(sw.scored, tc.scored) {
			t.Errorf("%s: scored %v, want %v", tc.name, sw.scored, tc.scored)
		}
		if len(cands) != len(tc.scored) {
			t.Errorf("%s: %d candidates of %d scored links, all above the threshold", tc.name, len(cands), len(tc.scored))
		}
	}
}

// scoreEverything is the reference candidates must agree with: every
// neighbor off the path that makes progress is scored, and sort.Slice
// ranks those above the threshold. scored counts the neighbors scored.
func scoreEverything(r *TicketRouter, score func(netstack.LinkState) float64, dst netstack.NodeID, path []netstack.NodeID) (out []candidate, scored int) {
	dstPos, _, havePos := r.API.LookupPosition(dst)
	selfD := 0.0
	if havePos {
		selfD = r.API.Pos().Dist(dstPos)
	}
	for _, nb := range r.API.AppendLinkStates(nil) {
		if slices.Contains(path, nb.ID) {
			continue
		}
		prog := 0.0
		if havePos {
			prog = selfD - nb.Pos.Dist(dstPos)
			if nb.ID != dst && prog <= 0 {
				continue
			}
		}
		scored++
		s := score(nb)
		if s < stabilityThreshold {
			continue
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
// location service or not — and requires, for k of 1, 3 and all, the
// reference's first k. Every admissible link is scored for its bound,
// whatever k is, and no more are integrated than the reference scores.
func TestCandidatesMatchScoreEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var calls, integrals, refScored int
	for world := 0; world < 20; world++ {
		vehicles := make([]routetest.Vehicle, 12+rng.Intn(24))
		for i := 1; i < len(vehicles); i++ {
			vehicles[i].Pos = geom.V(600*rng.Float64()-300, 40*rng.Float64()-20)
		}
		sw := newScoredWorld(t, vehicles)
		r := sw.routers[0]
		score := func(nb netstack.LinkState) float64 { return sw.scores[nb.ID] }
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
			want, all := scoreEverything(r, score, dst, path)
			for _, k := range []int{1, 3, len(vehicles)} {
				sw.scored, r.memo = sw.scored[:0], r.memo[:0]
				got := r.candidates(dst, path, k, nil)
				if !slices.Equal(got, want[:min(k, len(want))]) {
					t.Fatalf("world %d draw %d k %d (dst %d, path %v):\n got %v\nwant %v", world, draw, k, dst, path, got, want)
				}
				slices.Sort(sw.scored)
				if n := len(slices.Compact(sw.scored)); n != all {
					t.Fatalf("world %d draw %d k %d: scored %d links; %d are admissible", world, draw, k, n, all)
				}
				if len(r.memo) > all {
					t.Fatalf("world %d draw %d k %d: %d integrals; the reference scores %d links", world, draw, k, len(r.memo), all)
				}
				integrals += len(r.memo)
			}
			calls, refScored = calls+1, refScored+len(want)
		}
	}
	t.Logf("%d calls: %.1f links integrated per call over three k, %.1f above the threshold", calls,
		float64(integrals)/float64(calls), float64(refScored)/float64(calls))
}

// hybridScore is the hybrid router's link score (hybrid.Score, which this
// package's tests cannot import): the mean-duration stability s averaged
// with the deterministic lifetime, and never above the latter on an
// opposite-direction link.
func hybridScore(api *netstack.API, nb netstack.Neighbor, s float64) float64 {
	det := LinkStability(MetricDeterministic, StabilityParams{}, api.Pos(), api.Vel(), nb.Pos, nb.Vel, api.RangeEstimate())
	score := 0.5*s + 0.5*det
	if link.Classify(api.Pos(), api.Vel(), nb.Pos, nb.Vel) == link.OppositeDirection {
		score = math.Min(score, det)
	}
	return score
}

// TestCandidatesTopKWithTheMetrics runs the shipped probability metrics,
// whose bounds prune, and the hybrid scorer over the mean duration's bound,
// over 20 worlds of scattered vehicles driving at scattered speeds each,
// with destinations of known and unknown position: for every k the ranked
// list must be the first min(k, n) of the reference, which integrates every
// admissible neighbor, and the integrals the call runs — the entries of a
// memo emptied first — never more than the reference's.
func TestCandidatesTopKWithTheMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ks := []int{1, 2, 3, 8, math.MaxInt}
	for _, tc := range []struct {
		name  string
		opt   TicketOption
		score func(api *netstack.API, nb netstack.LinkState) float64
	}{
		{MetricMeanDuration.String(), WithMetric(MetricMeanDuration), func(api *netstack.API, nb netstack.LinkState) float64 {
			return linkStateStability(api, MetricMeanDuration, nb)
		}},
		{MetricExpectedDuration.String(), WithMetric(MetricExpectedDuration), func(api *netstack.API, nb netstack.LinkState) float64 {
			return linkStateStability(api, MetricExpectedDuration, nb)
		}},
		{"hybrid", WithScorer(hybridScore), func(api *netstack.API, nb netstack.LinkState) float64 {
			return hybridScore(api, nb, LinkStability(MetricMeanDuration, StabilityParams{},
				api.Pos(), api.Vel(), nb.Pos, nb.Vel, api.RangeEstimate()))
		}},
	} {
		integrals := make([]int, len(ks))
		var calls, refIntegrals int
		for world := 0; world < 20; world++ {
			vehicles := make([]routetest.Vehicle, 12+rng.Intn(24))
			vehicles[0].Vel = geom.V(20, 0)
			for i := 1; i < len(vehicles); i++ {
				vehicles[i].Pos = geom.V(500*rng.Float64()-250, 40*rng.Float64()-20)
				vehicles[i].Vel = geom.V(60*rng.Float64()-20, 4*rng.Float64()-2)
			}
			var routers []*TicketRouter
			factory := NewTicketRouter(tc.opt)
			w, _ := routetest.World(t, 1, vehicles, func() netstack.Router {
				r := factory().(*TicketRouter)
				routers = append(routers, r)
				return r
			})
			w.StartRun()
			advance(t, w, 2.05)
			r := routers[0]
			score := func(nb netstack.LinkState) float64 { return tc.score(r.API, nb) }
			for draw := 0; draw < 25; draw++ {
				path := []netstack.NodeID{r.API.Self()}
				for id := 1; id < len(vehicles); id++ {
					if rng.Intn(6) == 0 {
						path = append(path, netstack.NodeID(id))
					}
				}
				dst := netstack.NodeID(len(vehicles) + 5) // nobody: position unknown
				if draw%2 == 0 {
					dst = netstack.NodeID(1 + rng.Intn(len(vehicles)-1))
				}
				want, all := scoreEverything(r, score, dst, path)
				for i, k := range ks {
					r.memo = r.memo[:0]
					got := r.candidates(dst, path, k, nil)
					if !slices.Equal(got, want[:min(k, len(want))]) {
						t.Fatalf("%s world %d draw %d k %d (dst %d, path %v):\n got %v\nwant %v", tc.name, world, draw, k, dst, path, got, want)
					}
					if len(r.memo) > all {
						t.Fatalf("%s world %d draw %d k %d: %d integrals; the reference runs %d", tc.name, world, draw, k, len(r.memo), all)
					}
					integrals[i] += len(r.memo)
				}
				calls, refIntegrals = calls+1, refIntegrals+all
			}
		}
		per := func(n int) float64 { return float64(n) / float64(calls) }
		t.Logf("%s, %d calls: integrals per call %.2f at k=1, %.2f at k=3, %.2f at k=all; the reference %.2f",
			tc.name, calls, per(integrals[0]), per(integrals[2]), per(integrals[len(ks)-1]), per(refIntegrals))
	}
}
