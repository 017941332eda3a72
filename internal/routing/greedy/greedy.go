// Package greedy implements the survey's geographic greedy forwarding
// (Gong et al. / Lochert et al., Sec. VI-B): each node knows its own
// position (GPS) and its neighbors' positions (beacons); data is forwarded
// to the neighbor that makes the most progress toward the destination.
// The direction of vehicle movement is always taken into account — among
// candidates within 10 % of the best progress the one moving toward the
// destination is preferred, which "helps to select long-lived links". At a
// local maximum (no neighbor closer than self) the packet is carried for up
// to 8 s until the topology opens up — the store-carry-forward escape VANET
// greedy variants use instead of planar perimeter mode, because vehicles
// move along roads.
package greedy

import (
	"math"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// carryTimeout is how long, in seconds, a packet may be carried waiting for
// progress before it is dropped.
const carryTimeout = 8.0

// Router is a per-node greedy geographic router: the carry-and-forward
// core with maximum-progress next-hop selection.
type Router struct {
	routing.Carrier
}

// New returns a greedy router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{}
		// a carried packet is retried by the rule it was routed by
		r.Init(r.Name(), carryTimeout, r.route, r.route)
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "Greedy" }

// route forwards greedily; at a local maximum (no neighbor closer than
// self) the packet is stored, carried and forwarded later. A destination
// the location service cannot place is given up, carried or not.
func (r *Router) route(pkt *netstack.Packet) routing.Hop {
	if r.API.HasNeighbor(pkt.Dst) {
		return routing.Forward(pkt.Dst)
	}
	dstPos, _, ok := r.API.LookupPosition(pkt.Dst)
	if !ok {
		return routing.Drop()
	}
	if next, found := r.bestNextHop(dstPos); found {
		return routing.Forward(next)
	}
	return routing.Carry()
}

// bestNextHop picks the neighbor with maximum progress toward dst,
// breaking near-ties (within 10% progress) toward same-direction
// neighbors.
func (r *Router) bestNextHop(dstPos geom.Vec2) (netstack.NodeID, bool) {
	self := r.API.Pos()
	myDist := self.Dist(dstPos)
	var best netstack.NodeID
	bestDist := myDist // must strictly improve
	found := false
	var buf [routing.NeighborBuf]netstack.Neighbor
	nbs := r.API.AppendNeighbors(buf[:0])
	for i := range nbs {
		nb := &nbs[i]
		d := nb.Pos.Dist(dstPos)
		if d >= bestDist {
			continue
		}
		best = nb.ID
		bestDist = d
		found = true
	}
	if !found {
		return best, false
	}
	// direction-aware refinement: among candidates within 10% of the best
	// progress, prefer one moving toward the destination.
	threshold := bestDist + 0.1*(myDist-bestDist)
	bestScore := -math.MaxFloat64
	refined := best
	for i := range nbs {
		nb := &nbs[i]
		d := nb.Pos.Dist(dstPos)
		if d >= threshold || d >= myDist {
			continue
		}
		toward := dstPos.Sub(nb.Pos).Unit()
		score := nb.Vel.Dot(toward) // m/s of closing speed
		if score > bestScore {
			bestScore = score
			refined = nb.ID
		}
	}
	return refined, true
}
