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
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/prob"
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
		r.Init(r.Name(), 8, r.route, r.retry)
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "GVGrid" }

// linkReliability returns P(link to the beaconed neighbor survives the
// delay bound) under the protocol's probability model: relative speed
// ~ N(observed Δv, σ²), gap and range from the reliability plane's link
// state. The model is GVGrid's own sign convention (self behind the
// neighbor along the axis toward it), so it stays local rather than using
// linkstate.Survival.
func (r *Router) linkReliability(ls netstack.LinkState) float64 {
	axis := ls.Pos.Sub(r.API.Pos())
	gap := axis.Len()
	relSpeed := geom.Project(r.API.Vel().Sub(ls.Vel), axis)
	model := prob.LinkDurationModel{
		RelSpeed: prob.Normal{Mu: relSpeed, Sigma: speedStd},
		Gap:      -gap, // self behind neighbor along the axis toward it
		Range:    r.API.RangeEstimate(),
	}
	return model.SurvivalProb(delayBound)
}

// cellOf returns the integer grid cell of p.
func (r *Router) cellOf(p geom.Vec2) (int, int) {
	return int(math.Floor(p.X / cellSize)), int(math.Floor(p.Y / cellSize))
}

// route forwards to the most reliable neighbor that advances the grid-cell
// walk toward the destination; with none, route repair from the break
// point is to carry briefly, then retry.
func (r *Router) route(pkt *netstack.Packet) routing.Hop {
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
	best := netstack.Broadcast
	bestScore := -1.0
	// raw snapshot: linkReliability runs GVGrid's own model over the
	// observed fields, so paying the estimator derivation per packet
	// would buy nothing
	for _, nb := range r.API.Neighbors() {
		nx, ny := r.cellOf(nb.Pos)
		cd := cellDist(nx, ny)
		if cd >= myCellD {
			continue // must advance the cell walk
		}
		rel := r.linkReliability(nb)
		// prefer fewer remaining cells, then reliability
		score := float64(myCellD-cd)*10 + rel
		if score > bestScore {
			bestScore = score
			best = nb.ID
		}
	}
	if best != netstack.Broadcast {
		return routing.Forward(best)
	}
	return routing.Carry()
}

// retry settles for any neighbor geographically closer to the destination.
func (r *Router) retry(pkt *netstack.Packet) routing.Hop {
	if r.API.HasNeighbor(pkt.Dst) {
		return routing.Forward(pkt.Dst)
	}
	dstPos, _, ok := r.API.LookupPosition(pkt.Dst)
	if !ok {
		return routing.Carry()
	}
	return routing.FirstCloser(r.API, dstPos)
}
