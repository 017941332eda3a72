// Package taleb implements the stable routing protocol of Taleb et al.
// (survey Sec. IV-B): vehicles are grouped into four classes by their
// velocity vector, links between same-group vehicles are considered
// long-lived and preferred during RREQ dissemination, the destination
// picks the most stable arriving path, and — per the survey — "a new route
// discovery is always initiated prior [to the] duration of the routing
// path, i.e. the shortest link duration".
package taleb

import (
	"math"

	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// crossGroupDelay is the extra rebroadcast delay in seconds imposed on
// different-group relays, biasing discovery toward same-group paths
// without partitioning the network.
const crossGroupDelay = 0.08

// Router is a per-node Taleb instance.
type Router struct {
	routing.OnDemand
	sel routing.Selection[routing.Candidate] // Metric: shortest link duration
}

// rreq carries the origin's velocity group and accumulated path stability.
type rreq struct {
	Origin      netstack.NodeID
	ReqID       uint64
	Target      netstack.NodeID
	OriginGroup int
	MinLife     float64 // shortest link duration on the path so far
	SameGroup   int     // count of same-group links traversed
	Links       int
}

// New returns a Taleb router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{}
		r.Init(1.2, r.request)
		r.sel = routing.NewSelection(0.3, r.answer)
		return r
	}
}

// group returns this node's velocity group.
func (r *Router) group() int { return link.HeadingGroup(r.API.Vel()) }

func (r *Router) request(dst netstack.NodeID, reqID uint64) *netstack.Packet {
	return r.Control(netstack.KindRREQ, netstack.Broadcast, 56, rreq{
		Origin: r.API.Self(), ReqID: reqID, Target: dst,
		OriginGroup: r.group(), MinLife: link.Forever,
	})
}

// HandlePacket implements netstack.Router.
func (r *Router) HandlePacket(pkt *netstack.Packet) {
	switch pkt.Kind {
	case netstack.KindRREQ:
		r.handleRREQ(pkt)
	case netstack.KindRREP:
		if target, lt, ok := r.HandleReply(pkt, r.LifetimeRoute); ok {
			r.API.Metrics().OnPathLifetime(routing.CapLife(lt))
			// Re-discover prior to the shortest link duration elapsing.
			r.RenewBefore(target, lt, 0.8)
		}
	case netstack.KindData:
		r.HandleData(pkt)
	}
}

func (r *Router) handleRREQ(pkt *netstack.Packet) {
	req, ok := pkt.Payload.(rreq)
	if !ok || req.Origin == r.API.Self() {
		r.API.Release(pkt)
		return
	}
	// one reliability-plane read serves both the lifetime fold and the
	// velocity-group comparison of the previous hop
	lifeFrom := 0.0
	sameGroup := 0
	if ls, okLs := r.API.LinkState(pkt.From); okLs {
		lifeFrom = ls.Lifetime
		if link.HeadingGroup(ls.Vel) == r.group() {
			sameGroup = 1
		}
	}
	lt := routing.MinLifetime(req.MinLife, lifeFrom)
	r.MergeReverse(r.LifetimeRoute(req.Origin, pkt.From, pkt.Hops, lt))
	if req.Target == r.API.Self() {
		// Stability score: same-group fraction dominates, predicted
		// lifetime breaks ties (the protocol's velocity-vector heuristic).
		links := float64(req.Links + 1)
		score := float64(req.SameGroup+sameGroup)/links*1e6 + math.Min(routing.CapLife(lt), 1e5)
		r.sel.Offer(r.API, routing.DupKey{Origin: req.Origin, Seq: req.ReqID}, score,
			routing.Candidate{From: pkt.From, Hops: pkt.Hops, Metric: lt})
		r.API.Release(pkt)
		return
	}
	if r.Duplicate(req.Origin, req.ReqID) {
		r.API.Release(pkt)
		return
	}
	cp := req
	cp.MinLife = lt
	cp.SameGroup += sameGroup
	cp.Links++
	pkt.Payload = cp
	// Same-group relays forward immediately; cross-group relays wait,
	// letting stable paths win the dup-suppression race downstream.
	r.Rebroadcast(pkt, sameGroup == 0, crossGroupDelay)
}

func (r *Router) answer(origin netstack.NodeID, c routing.Candidate) {
	r.Table().Upsert(r.LifetimeRoute(origin, c.From, c.Hops, c.Metric))
	r.Reply(c.From, origin, 44, c.Metric)
}
