// Package abedi implements the mobility-enhanced AODV of Abedi et al.
// (survey Sec. IV-B), which ranks next hops by three mobility parameters
// in strict priority order: direction first ("nodes moving with the same
// directions will be more stable"), then position (progress toward the
// destination), then speed similarity. The ranking is applied as a
// forwarding delay during RREQ dissemination — better-ranked relays
// rebroadcast sooner and win the duplicate-suppression race downstream —
// and as the tie-break when recording reverse routes.
package abedi

import (
	"math"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// maxDelay is the rebroadcast delay, in seconds, of the worst-ranked relay.
const maxDelay = 0.12

// Router is a per-node Abedi instance.
type Router struct {
	routing.OnDemand
}

// rreq carries the origin's velocity so relays can rank their direction
// agreement with the flow.
type rreq struct {
	Origin    netstack.NodeID
	ReqID     uint64
	Target    netstack.NodeID
	OriginVel geom.Vec2
}

// New returns an Abedi router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{}
		r.Init(1.0, r)
		return r
	}
}

func (r *Router) NewRequest(dst netstack.NodeID, reqID uint64) *netstack.Packet {
	return routing.NewPacket(r.API, netstack.KindRREQ, netstack.Broadcast, 56,
		rreq{Origin: r.API.Self(), ReqID: reqID, Target: dst, OriginVel: r.API.Vel()})
}

// relayDelay converts this node's suitability as a relay into a forwarding
// delay in [0, maxDelay]: direction agreement with the origin's motion is
// the most important parameter, then progress toward the target, then
// speed similarity — Abedi's priority order.
func (r *Router) relayDelay(req rreq) float64 {
	score := 0.0
	// 1. direction (weight 4): same heading as the flow's origin
	if r.API.Vel().Dot(req.OriginVel) > 0 {
		score += 4
	}
	// 2. position (weight 2): closer to the target than typical
	if tPos, _, ok := r.API.LookupPosition(req.Target); ok {
		d := r.API.Pos().Dist(tPos)
		score += 2 * math.Exp(-d/1000)
	}
	// 3. speed similarity (weight 1)
	score += link.SpeedSimilarity(r.API.Vel(), req.OriginVel)
	const maxScore = 7
	frac := 1 - score/maxScore
	if frac < 0 {
		frac = 0
	}
	return frac * maxDelay
}

// HandlePacket implements netstack.Router.
func (r *Router) HandlePacket(pkt *netstack.Packet) {
	switch pkt.Kind {
	case netstack.KindRREQ:
		r.handleRREQ(pkt)
	case netstack.KindRREP:
		r.HandleReply(pkt, route)
	case netstack.KindData:
		routing.ForwardData(r.API, r.Table(), pkt)
	}
}

func (r *Router) handleRREQ(pkt *netstack.Packet) {
	req := pkt.Payload.(rreq)
	if req.Origin == r.API.Self() {
		r.API.Release(pkt)
		return
	}
	// Reverse route; among equal-hop alternatives the longer-lived link
	// wins, which prefers stable same-direction previous hops.
	r.MergeReverse(route(r.API, req.Origin, pkt.From, pkt.Hops, 0))
	if r.Duplicate(req.Origin, req.ReqID) {
		r.API.Release(pkt)
		return
	}
	if req.Target == r.API.Self() {
		r.API.Release(pkt)
		rt, okRt := r.Table().Lookup(req.Origin, r.API.Now())
		if !okRt {
			return
		}
		r.Reply(rt.NextHop, req.Origin, 44, 0)
		return
	}
	r.Rebroadcast(pkt, true, r.relayDelay(req))
}

// route is a 6-second table entry through via, annotated with the
// predicted lifetime of the link to it; Abedi carries no path metric.
func route(api *netstack.API, dst, via netstack.NodeID, hops int, _ float64) routing.Route {
	return routing.Route{
		Dst: dst, NextHop: via, Hops: hops,
		Expiry: api.Now() + 6, Valid: true, Lifetime: routing.LinkLifetime(api, via),
	}
}
