// Package zone implements the zone dissemination protocols of Bronsted &
// Kristensen (survey Sec. VI-B, Fig. 6): a packet carries a geographic
// zone — "for example, a 500-meter section of a road" — and only nodes
// inside the zone rebroadcast it; nodes outside drop it, so "packets are
// only delivered in a section of a road". Zone routing extends this with
// unicast toward the zone for sources outside it.
package zone

import (
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// payload carries the zone with the data.
type payload struct{ Zone geom.Rect }

// Router is a per-node zone-flooding router: routing.Flooder, with the zone
// stamped at the origin and only nodes inside it rebroadcasting. The zone
// is the corridor between source and destination: the axis-aligned
// bounding box of the two positions, padded by one radio range. A router
// needs its own position, not neighbor state.
type Router struct {
	routing.Flooder
}

// New returns a zone router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{}
		r.Init(r.Name(), r.inZone, r.stamp)
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "Zone" }

// stamp gives the packet this node originates its zone; sending stays the
// core's.
func (r *Router) stamp(pkt *netstack.Packet, origin bool) bool {
	if origin {
		src := r.API.Pos()
		dst, _, ok := r.API.LookupPosition(pkt.Dst)
		if !ok {
			dst = src
		}
		pkt.Payload = payload{geom.NewRect(src, dst).Expand(r.API.RangeEstimate())}
	}
	return false
}

// inZone is the rebroadcast rule: nodes outside the packet's zone stay
// silent.
func (r *Router) inZone(pkt *netstack.Packet) bool {
	pl, ok := pkt.Payload.(payload)
	return ok && pl.Zone.Contains(r.API.Pos())
}
