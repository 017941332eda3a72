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

// Policy computes the dissemination zone for a packet from source and
// destination positions. The default corridor policy covers the
// source–destination segment padded by the radio range.
type Policy func(src, dst geom.Vec2, radioRange float64) geom.Rect

// CorridorPolicy is the default zone: the axis-aligned bounding box of the
// src→dst segment expanded by pad meters (pad ≤ 0 means one radio range).
func CorridorPolicy(pad float64) Policy {
	return func(src, dst geom.Vec2, radioRange float64) geom.Rect {
		p := pad
		if p <= 0 {
			p = radioRange
		}
		return geom.NewRect(src, dst).Expand(p)
	}
}

// FixedZone always returns the given rectangle — the paper's "500-meter
// section of a road" configuration for event dissemination.
func FixedZone(r geom.Rect) Policy {
	return func(geom.Vec2, geom.Vec2, float64) geom.Rect { return r }
}

// payload carries the zone with the data.
type payload struct{ Zone geom.Rect }

// Router is a per-node zone-flooding router: routing.Flooder, with the zone
// stamped at the origin and only nodes inside it rebroadcasting. It needs
// its own position, not neighbor state.
type Router struct {
	routing.Flooder
	policy Policy
}

// New returns a zone router factory with the given policy (nil means
// CorridorPolicy(0)).
func New(policy Policy) netstack.RouterFactory {
	if policy == nil {
		policy = CorridorPolicy(0)
	}
	return func() netstack.Router {
		r := &Router{policy: policy}
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
		pkt.Payload = payload{r.policy(src, dst, r.API.RangeEstimate())}
	}
	return false
}

// inZone is the rebroadcast rule: nodes outside the packet's zone stay
// silent.
func (r *Router) inZone(pkt *netstack.Packet) bool {
	pl, ok := pkt.Payload.(payload)
	return ok && pl.Zone.Contains(r.API.Pos())
}
