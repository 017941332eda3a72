// Package gateway implements LORA-DCBF-style cluster/gateway routing
// (survey Sec. VI-B): the plane is partitioned into fixed geographic
// cells; within each cell exactly one vehicle — the gateway, the node
// closest to the cell center — retransmits flooded control/data packets,
// while "all the members in the zone can read and process the packet; they
// do not retransmit. Only gateway nodes retransmit packets between zones."
// This suppresses the duplicate storm of plain flooding while preserving
// reachability, the effect experiment E-F6 measures.
package gateway

import (
	"math"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// Router is a per-node gateway-clustered flooding router: routing.Flooder
// with the gateway election as its rebroadcast rule.
type Router struct {
	routing.Flooder
}

// New returns a gateway router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{}
		r.Init(r)
		return r
	}
}

// NeedsBeacons implements netstack.Router: unlike the other flooders, the
// gateway election reads the neighbor table.
func (r *Router) NeedsBeacons() bool { return true }

// cellCenter returns the center of the cell containing p. A cell's edge is
// half the radio range, so the gateways of neighboring cells, each the node
// nearest its cell's center, are usually in range of each other.
func (r *Router) cellCenter(p geom.Vec2) geom.Vec2 {
	c := r.API.RangeEstimate() / 2
	return geom.V((math.Floor(p.X/c)+0.5)*c, (math.Floor(p.Y/c)+0.5)*c)
}

// Relays is the rebroadcast rule (members read, only gateways retransmit;
// a source always transmits). It elects this node the gateway of its cell:
// closest to the cell center among itself and its same-cell neighbors, ties
// broken by lowest ID. The election is recomputed per packet from fresh
// beacon state, so gateways rotate naturally as vehicles move.
func (r *Router) Relays(*netstack.Packet) bool {
	self := r.API.Pos()
	center := r.cellCenter(self)
	myDist := self.Dist(center)
	myID := r.API.Self()
	var buf [routing.NeighborBuf]netstack.Neighbor
	for _, nb := range r.API.AppendNeighbors(buf[:0]) {
		if r.cellCenter(nb.Pos) != center {
			continue // different cell
		}
		d := nb.Pos.Dist(center)
		if d < myDist || (d == myDist && nb.ID < myID) {
			return false
		}
	}
	return true
}
