// Package pbr implements Prediction-Based Routing (Namboodiri & Gao,
// marked PBR in the survey's mobility category, Sec. IV-B): route
// discovery carries the predicted lifetime of the path — the minimum of
// the per-link lifetimes solved from Eqn (4) — the destination selects the
// longest-lived candidate among the RREQs it collects, and the source
// preemptively rebuilds the route shortly before the predicted expiry, so
// data keeps flowing across what would otherwise be a visible break.
package pbr

import (
	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

const (
	// selectionWindow is how long, in seconds, the destination collects
	// candidate RREQs before answering.
	selectionWindow = 0.25
	// rebuildMargin is how many seconds before predicted route expiry the
	// source re-discovers.
	rebuildMargin = 1.0
)

// Router is a per-node PBR instance.
type Router struct {
	routing.OnDemand
	sel routing.Selection[routing.Candidate] // Metric: predicted path lifetime
}

// rreq carries the accumulated path lifetime.
type rreq struct {
	Origin   netstack.NodeID
	ReqID    uint64
	Target   netstack.NodeID
	Lifetime float64 // min link lifetime so far
}

// New returns a PBR router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{}
		r.Init(1.0, r.request)
		r.sel = routing.NewSelection(selectionWindow, r.answer)
		return r
	}
}

func (r *Router) request(dst netstack.NodeID, reqID uint64) *netstack.Packet {
	return r.Control(netstack.KindRREQ, netstack.Broadcast, 52,
		rreq{Origin: r.API.Self(), ReqID: reqID, Target: dst, Lifetime: link.Forever})
}

// HandlePacket implements netstack.Router.
func (r *Router) HandlePacket(pkt *netstack.Packet) {
	switch pkt.Kind {
	case netstack.KindRREQ:
		r.handleRREQ(pkt)
	case netstack.KindRREP:
		if target, lt, ok := r.HandleReply(pkt, r.LifetimeRoute); ok {
			r.API.Metrics().OnPathLifetime(routing.CapLife(lt))
			// Preemptive rebuild before predicted expiry: the PBR idea.
			r.RenewBefore(target, lt, rebuildMargin)
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
	// Fold in the lifetime of the link we just traversed (From → self),
	// as predicted by the reliability plane (absent neighbor = dead link).
	lt := routing.MinLifetime(req.Lifetime, routing.LinkLifetime(r.API, pkt.From))
	// Reverse route to origin, annotated with the predicted lifetime.
	r.MergeReverse(r.LifetimeRoute(req.Origin, pkt.From, pkt.Hops, lt))
	if req.Target == r.API.Self() {
		// Collect candidates for a window, then answer the longest-lived.
		r.sel.Offer(r.API, routing.DupKey{Origin: req.Origin, Seq: req.ReqID}, lt,
			routing.Candidate{From: pkt.From, Hops: pkt.Hops, Metric: lt})
		r.API.Release(pkt)
		return
	}
	// Intermediate: forward the first copy only.
	if r.Duplicate(req.Origin, req.ReqID) {
		r.API.Release(pkt)
		return
	}
	cp := req
	cp.Lifetime = lt
	pkt.Payload = cp
	r.Rebroadcast(pkt, false, 0)
}

// answer sends the RREP for the best collected candidate, back through
// the hop it arrived by.
func (r *Router) answer(origin netstack.NodeID, c routing.Candidate) {
	r.Table().Upsert(r.LifetimeRoute(origin, c.From, c.Hops, c.Metric))
	r.Reply(c.From, origin, 48, c.Metric)
}
