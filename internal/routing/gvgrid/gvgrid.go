// Package gvgrid implements the QoS grid routing of Sun et al. (survey
// Sec. VII-B, marked GVGrid): the plane is partitioned into square grid
// cells; a route is the straight cell sequence from source to destination;
// under the protocol's assumptions — equally spaced relays and normally
// distributed vehicle speeds — each grid transition gets a link-lifetime
// survival probability from the probability model, and forwarding prefers
// the neighbor in the next cell whose predicted link survives the required
// delay bound.
package gvgrid

import (
	"math"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/linkstate"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

const (
	// cellSize is the grid cell edge in meters.
	cellSize = 100.0
	// speedStd is the σ of the assumed normal relative-speed model in m/s.
	speedStd = 6.0
	// delayBound is the QoS delay bound in seconds a selected link must
	// survive.
	delayBound = 2.0
)

// Router is a per-node GVGrid instance: the carry-and-forward core with
// grid-walk next-hop selection.
type Router struct {
	routing.Carrier
}

// New returns a GVGrid router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{}
		r.Init(8, r)
		return r
	}
}

// linkReliability returns P(link to the beaconed neighbor survives the
// delay bound) under the Sec. VII model, relative speed ~ N(observed Δv,
// σ²), via the reliability plane's shared survival helper.
func (r *Router) linkReliability(ls netstack.LinkState) float64 {
	obs := linkstate.Observer{Pos: r.API.Pos(), Vel: r.API.Vel(), Now: r.API.Now()}
	return linkstate.Survival(obs, ls, speedStd, r.API.RangeEstimate(), 0, delayBound)
}

// cellOf returns the integer grid cell of p.
func (r *Router) cellOf(p geom.Vec2) (int, int) {
	return int(math.Floor(p.X / cellSize)), int(math.Floor(p.Y / cellSize))
}

// NextHop forwards to the most reliable neighbor that advances the grid-cell
// walk toward the destination; with none, route repair from the break
// point is to carry briefly, then retry.
func (r *Router) NextHop(pkt *netstack.Packet) routing.Hop {
	if r.API.HasNeighbor(pkt.Dst) {
		return routing.Forward(pkt.Dst)
	}
	dstPos, _, ok := r.API.LookupPosition(pkt.Dst)
	if !ok {
		return routing.Drop()
	}
	cx, cy := r.cellOf(r.API.Pos())
	dx, dy := r.cellOf(dstPos)
	cellDist := func(x, y int) int {
		ax, ay := x-dx, y-dy
		if ax < 0 {
			ax = -ax
		}
		if ay < 0 {
			ay = -ay
		}
		if ax > ay {
			return ax
		}
		return ay
	}
	myCellD := cellDist(cx, cy)
	// raw snapshot: linkReliability reads only the observed position and
	// velocity, so paying the estimator derivation per packet would buy
	// nothing
	var buf [routing.NeighborBuf]netstack.Neighbor
	best := netstack.Broadcast
	bestScore := -1.0
	for _, nb := range r.API.AppendNeighbors(buf[:0]) {
		// the cell walk must advance; fewer remaining cells win, then
		// reliability, a probability of at most 1, and the first of equal
		// scores
		if a := myCellD - cellDist(r.cellOf(nb.Pos)); a > 0 {
			if score := float64(a)*10 + r.linkReliability(nb); score > bestScore {
				bestScore = score
				best = nb.ID
			}
		}
	}
	if best != netstack.Broadcast {
		return routing.Forward(best)
	}
	return routing.Carry()
}

// Retry settles for any neighbor geographically closer to the destination.
func (r *Router) Retry(pkt *netstack.Packet) routing.Hop {
	if r.API.HasNeighbor(pkt.Dst) {
		return routing.Forward(pkt.Dst)
	}
	dstPos, _, ok := r.API.LookupPosition(pkt.Dst)
	if !ok {
		return routing.Carry()
	}
	return routing.FirstCloser(r.API, dstPos)
}
