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

type rrep struct {
	Origin netstack.NodeID
	Target netstack.NodeID
	Hops   int
}

// New returns an Abedi router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{}
		r.Init(r.Name(), 1.0, r.request)
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "Abedi" }

func (r *Router) request(dst netstack.NodeID, reqID uint64) *netstack.Packet {
	return r.Control(netstack.KindRREQ, netstack.Broadcast, 56,
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
		r.handleRREP(pkt)
	case netstack.KindData:
		r.HandleData(pkt)
	}
}

func (r *Router) handleRREQ(pkt *netstack.Packet) {
	req, ok := pkt.Payload.(rreq)
	if !ok || req.Origin == r.API.Self() {
		return
	}
	// Reverse route; among equal-hop alternatives the longer-lived link
	// wins, which prefers stable same-direction previous hops.
	r.MergeReverse(r.route(req.Origin, pkt.From, pkt.Hops))
	if r.Duplicate(req.Origin, req.ReqID) {
		return
	}
	if req.Target == r.API.Self() {
		rt, okRt := r.Table().Lookup(req.Origin, r.API.Now())
		if !okRt {
			return
		}
		r.API.Send(rt.NextHop, r.Control(netstack.KindRREP, req.Origin, 44,
			rrep{Origin: req.Origin, Target: r.API.Self()}))
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	delay := r.relayDelay(req)
	fwd := pkt
	r.API.After(delay, func() { r.API.Send(netstack.Broadcast, fwd) })
}

// route is a 6-second table entry through via, annotated with the
// predicted lifetime of the link to it.
func (r *Router) route(dst, via netstack.NodeID, hops int) routing.Route {
	return routing.Route{
		Dst: dst, NextHop: via, Hops: hops,
		Expiry: r.API.Now() + 6, Valid: true, Lifetime: routing.LinkLifetime(r.API, via),
	}
}

func (r *Router) handleRREP(pkt *netstack.Packet) {
	rep, ok := pkt.Payload.(rrep)
	if !ok {
		return
	}
	r.Table().Upsert(r.route(rep.Target, pkt.From, rep.Hops+pkt.Hops))
	if rep.Origin == r.API.Self() {
		r.Answered(rep.Target)
		return
	}
	r.Relay(pkt, rep.Origin)
}
