// Package aodv implements Ad hoc On-demand Distance Vector routing
// (Perkins et al., RFC 3561), the canonical enhanced-flooding protocol of
// the survey's connectivity category (Sec. III): route discovery floods
// RREQ control packets, the destination (or an intermediate node with a
// fresh-enough route) returns an RREP along the reverse path, data then
// follows the established hop-by-hop route, and RERR reports broken links.
// The survey's Fig. 2 is exactly one discovery round of this protocol,
// which experiment E-F2 traces.
package aodv

import (
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// routeLifetime is the active-route timeout in seconds: a route expires
// this long after it was last learned or used.
const routeLifetime = 6.0

// Router is a per-node AODV instance. Control packets carry the full
// routing.DefaultTTL as the network diameter; a silent discovery is
// repeated after 1 s, twice.
type Router struct {
	routing.OnDemand
	seq uint32 // own destination sequence number
}

// rreq is the route-request payload.
type rreq struct {
	Origin    netstack.NodeID
	OriginSeq uint32
	ReqID     uint64
	Target    netstack.NodeID
	TargetSeq uint32
	HasTSeq   bool
}

// rrep is the route-reply payload.
type rrep struct {
	Origin    netstack.NodeID
	Target    netstack.NodeID
	TargetSeq uint32
	HopsToDst int
}

// rerr is the route-error payload: destinations now unreachable through
// the sender.
type rerr struct {
	Unreachable []netstack.NodeID
}

// New returns an AODV router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{}
		r.Init(r.Name(), 1, r.request)
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "AODV" }

// Originate implements netstack.Router: using a route extends it.
func (r *Router) Originate(dst netstack.NodeID, size int) {
	if dst != r.API.Self() {
		if rt, ok := r.Table().Lookup(dst, r.API.Now()); ok {
			r.refresh(rt)
		}
	}
	r.OnDemand.Originate(dst, size)
}

func (r *Router) request(dst netstack.NodeID, reqID uint64) *netstack.Packet {
	r.seq++
	var tseq uint32
	hasTSeq := false
	if rt, ok := r.Table().Get(dst); ok {
		tseq = rt.Seq
		hasTSeq = true
	}
	return r.Control(netstack.KindRREQ, netstack.Broadcast, 48, rreq{
		Origin: r.API.Self(), OriginSeq: r.seq, ReqID: reqID,
		Target: dst, TargetSeq: tseq, HasTSeq: hasTSeq,
	})
}

// HandlePacket implements netstack.Router.
func (r *Router) HandlePacket(pkt *netstack.Packet) {
	switch pkt.Kind {
	case netstack.KindRREQ:
		r.handleRREQ(pkt)
	case netstack.KindRREP:
		r.handleRREP(pkt)
	case netstack.KindRERR:
		r.handleRERR(pkt)
	case netstack.KindData:
		r.handleData(pkt)
	}
}

func (r *Router) handleRREQ(pkt *netstack.Packet) {
	req, ok := pkt.Payload.(rreq)
	if !ok || req.Origin == r.API.Self() {
		return
	}
	now := r.API.Now()
	// Reverse route to the origin through the previous hop.
	r.mergeRoute(routing.Route{
		Dst: req.Origin, NextHop: pkt.From, Hops: pkt.Hops,
		Seq: req.OriginSeq, Expiry: now + routeLifetime, Valid: true,
	})
	if r.Duplicate(req.Origin, req.ReqID) {
		return
	}
	// Can we answer? Destination itself, or fresh-enough cached route.
	if req.Target == r.API.Self() {
		if routing.SeqNewer(req.TargetSeq, r.seq) {
			r.seq = req.TargetSeq
		}
		r.seq++
		r.sendRREP(req.Origin, req.Target, r.seq, 0)
		return
	}
	if rt, okRt := r.Table().Lookup(req.Target, now); okRt && req.HasTSeq && routing.SeqNewer(rt.Seq+1, req.TargetSeq) {
		r.sendRREP(req.Origin, req.Target, rt.Seq, rt.Hops)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	r.API.Send(netstack.Broadcast, pkt)
}

// sendRREP unicasts a reply toward origin along the reverse route.
func (r *Router) sendRREP(origin, target netstack.NodeID, targetSeq uint32, hopsToDst int) {
	rt, ok := r.Table().Lookup(origin, r.API.Now())
	if !ok {
		return
	}
	r.API.Send(rt.NextHop, r.Control(netstack.KindRREP, origin, 44,
		rrep{Origin: origin, Target: target, TargetSeq: targetSeq, HopsToDst: hopsToDst}))
}

func (r *Router) handleRREP(pkt *netstack.Packet) {
	rep, ok := pkt.Payload.(rrep)
	if !ok {
		return
	}
	// Forward route to the target through the previous hop; the hops the
	// reply has travelled are in pkt.Hops.
	r.mergeRoute(routing.Route{
		Dst: rep.Target, NextHop: pkt.From, Hops: rep.HopsToDst + pkt.Hops,
		Seq: rep.TargetSeq, Expiry: r.API.Now() + routeLifetime, Valid: true,
	})
	if rep.Origin == r.API.Self() {
		r.Answered(rep.Target)
		return
	}
	r.Relay(pkt, rep.Origin)
}

func (r *Router) handleRERR(pkt *netstack.Packet) {
	er, ok := pkt.Payload.(rerr)
	if !ok {
		return
	}
	var cascade []netstack.NodeID
	for _, dst := range er.Unreachable {
		if rt, okRt := r.Table().Get(dst); okRt && rt.Valid && rt.NextHop == pkt.From {
			rt.Valid = false
			cascade = append(cascade, dst)
		}
	}
	if len(cascade) > 0 {
		r.API.Metrics().RouteBreaks += len(cascade)
		r.broadcastRERR(cascade)
	}
}

// handleData is the core's hop-by-hop forwarding plus AODV's own two
// rules: forwarding on a route extends it, and a relay without one reports
// the destination unreachable.
func (r *Router) handleData(pkt *netstack.Packet) {
	if pkt.Dst == r.API.Self() {
		r.API.Deliver(pkt)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		r.API.Drop(pkt)
		return
	}
	if rt, ok := r.Table().Lookup(pkt.Dst, r.API.Now()); ok {
		r.refresh(rt)
		r.API.Send(rt.NextHop, pkt)
		return
	}
	// No route at an intermediate node: RFC behaviour is to RERR.
	r.API.Drop(pkt)
	r.broadcastRERR([]netstack.NodeID{pkt.Dst})
}

func (r *Router) broadcastRERR(unreachable []netstack.NodeID) {
	pkt := r.Control(netstack.KindRERR, netstack.Broadcast, 20+4*len(unreachable), rerr{Unreachable: unreachable})
	pkt.TTL = 1
	r.API.Send(netstack.Broadcast, pkt)
}

// OnNeighborExpired implements netstack.Router: losing a neighbor breaks
// every route through it, and the breaks are reported.
func (r *Router) OnNeighborExpired(id netstack.NodeID) {
	broken := r.Table().InvalidateVia(id)
	if len(broken) == 0 {
		return
	}
	r.API.Metrics().RouteBreaks += len(broken)
	r.broadcastRERR(broken)
}

// OnSendFailed implements netstack.Router: a failed unicast is a detected
// link break — invalidate routes over it and report RERR (RFC 3561 §6.11).
func (r *Router) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	r.API.ForgetNeighbor(to)
	r.OnNeighborExpired(to)
	if pkt.Data {
		r.API.Drop(pkt)
	}
}

// mergeRoute applies the AODV update rule: fresher sequence number wins;
// equal sequence with fewer hops wins.
func (r *Router) mergeRoute(nr routing.Route) {
	cur, ok := r.Table().Get(nr.Dst)
	if ok && cur.Valid {
		if !routing.SeqNewer(nr.Seq, cur.Seq) && !(nr.Seq == cur.Seq && nr.Hops < cur.Hops) {
			// keep current, but refresh expiry on confirmation via same hop
			if cur.NextHop == nr.NextHop && nr.Expiry > cur.Expiry {
				cur.Expiry = nr.Expiry
			}
			return
		}
	}
	r.Table().Upsert(nr)
}

// refresh extends an in-use route's expiry.
func (r *Router) refresh(rt *routing.Route) {
	exp := r.API.Now() + routeLifetime
	if exp > rt.Expiry {
		rt.Expiry = exp
	}
}
