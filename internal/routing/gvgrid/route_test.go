package gvgrid

import (
	"math/rand"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// scoreEveryNeighbor is route written out from the protocol's rule: every
// neighbor that advances the walk is scored 10 per cell plus its
// reliability, the first best wins.
func scoreEveryNeighbor(r *Router, pkt *netstack.Packet) routing.Hop {
	if r.API.HasNeighbor(pkt.Dst) {
		return routing.Forward(pkt.Dst)
	}
	dstPos, _, ok := r.API.LookupPosition(pkt.Dst)
	if !ok {
		return routing.Drop()
	}
	dx, dy := r.cellOf(dstPos)
	cellDist := func(x, y int) int { return max(x-dx, dx-x, y-dy, dy-y) }
	myCellD := cellDist(r.cellOf(r.API.Pos()))
	best, bestScore := netstack.Broadcast, -1.0
	for _, nb := range r.API.AppendNeighbors(nil) {
		cd := cellDist(r.cellOf(nb.Pos))
		if cd >= myCellD {
			continue
		}
		if score := float64(myCellD-cd)*10 + r.linkReliability(nb); score > bestScore {
			bestScore, best = score, nb.ID
		}
	}
	if best != netstack.Broadcast {
		return routing.Forward(best)
	}
	return routing.Carry()
}

// TestRouteMatchesScoringEveryNeighbor asks every node of 24 worlds of
// scattered vehicles for a next hop to every other node, and requires the
// hop the reference picks. Half the worlds park every vehicle, so the
// reliabilities tie at 1 and the table order decides; the others drive at
// scattered velocities, so a neighbor a cell short of the best advance is
// often the more reliable.
func TestRouteMatchesScoringEveryNeighbor(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var asked, forwards int
	for world := 0; world < 24; world++ {
		vehicles := make([]routetest.Vehicle, 15+rng.Intn(20))
		for i := range vehicles {
			vehicles[i].Pos = geom.V(900*rng.Float64(), 300*rng.Float64())
			if world%2 == 1 {
				vehicles[i].Vel = geom.V(70*rng.Float64()-35, 10*rng.Float64()-5)
			}
		}
		var routers []*Router
		factory := New()
		w, ids := routetest.World(t, 1, vehicles, func() netstack.Router {
			r := factory().(*Router)
			routers = append(routers, r)
			return r
		})
		w.StartRun()
		if err := w.AdvanceTo(2.05); err != nil { // everyone has beaconed twice
			t.Fatal(err)
		}
		for i, r := range routers {
			for _, dst := range ids {
				if dst == ids[i] {
					continue
				}
				pkt := &netstack.Packet{Dst: dst}
				want := scoreEveryNeighbor(r, pkt)
				got := r.NextHop(pkt)
				if got != want {
					t.Fatalf("world %d: node %d to %d: route %+v, scoring every neighbor %+v", world, ids[i], dst, got, want)
				}
				asked++
				if got != routing.Carry() && got != routing.Drop() && got != routing.Forward(dst) {
					forwards++
				}
			}
		}
	}
	if forwards < asked/4 {
		t.Fatalf("only %d of %d asks chose a relay: the worlds test little", forwards, asked)
	}
	t.Logf("%d asks, %d relayed", asked, forwards)
}
