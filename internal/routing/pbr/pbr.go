// Package pbr implements Prediction-Based Routing (Namboodiri & Gao,
// marked PBR in the survey's mobility category, Sec. IV-B): route
// discovery carries the predicted lifetime of the path — the minimum of
// the per-link lifetimes solved from Eqn (4) — the destination selects the
// longest-lived candidate among the RREQs it collects, and the source
// preemptively rebuilds the route shortly before the predicted expiry, so
// data keeps flowing across what would otherwise be a visible break.
package pbr

import (
	"math"

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

// rrep returns the selected path lifetime to the origin.
type rrep struct {
	Origin   netstack.NodeID
	Target   netstack.NodeID
	Lifetime float64
	Hops     int
}

// New returns a PBR router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{}
		r.Init(r.Name(), 1.0, r.request)
		r.sel = routing.NewSelection(selectionWindow, r.answer)
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "PBR" }

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
	// Fold in the lifetime of the link we just traversed (From → self),
	// as predicted by the reliability plane (absent neighbor = dead link).
	lt := routing.MinLifetime(req.Lifetime, routing.LinkLifetime(r.API, pkt.From))
	// Reverse route to origin, annotated with the predicted lifetime.
	r.MergeReverse(r.LifetimeRoute(req.Origin, pkt.From, pkt.Hops, lt))
	if req.Target == r.API.Self() {
		// Collect candidates for a window, then answer the longest-lived.
		r.sel.Offer(r.API, routing.DupKey{Origin: req.Origin, Seq: req.ReqID}, lt,
			routing.Candidate{From: pkt.From, Hops: pkt.Hops, Metric: lt})
		return
	}
	// Intermediate: forward the first copy only.
	if r.Duplicate(req.Origin, req.ReqID) {
		return
	}
	cp := req
	cp.Lifetime = lt
	pkt.Payload = cp
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	r.API.Send(netstack.Broadcast, pkt)
}

// answer sends the RREP for the best collected candidate, back through
// the hop it arrived by.
func (r *Router) answer(origin netstack.NodeID, c routing.Candidate) {
	r.Table().Upsert(r.LifetimeRoute(origin, c.From, c.Hops, c.Metric))
	r.API.Send(c.From, r.Control(netstack.KindRREP, origin, 48,
		rrep{Origin: origin, Target: r.API.Self(), Lifetime: c.Metric}))
}

func (r *Router) handleRREP(pkt *netstack.Packet) {
	rep, ok := pkt.Payload.(rrep)
	if !ok {
		return
	}
	r.Table().Upsert(r.LifetimeRoute(rep.Target, pkt.From, rep.Hops+pkt.Hops, rep.Lifetime))
	if rep.Origin != r.API.Self() {
		r.Relay(pkt, rep.Origin)
		return
	}
	r.API.Metrics().OnPathLifetime(routing.CapLife(rep.Lifetime))
	r.Answered(rep.Target)
	// Preemptive rebuild before predicted expiry: the PBR idea.
	if rep.Lifetime != link.Forever {
		target := rep.Target
		r.API.After(math.Max(rep.Lifetime-rebuildMargin, 0.1), func() {
			if r.pendingOrActive(target) {
				r.API.Metrics().RouteRepairs++
				r.Start(target)
			}
		})
	}
}

// pendingOrActive reports whether the route to target is still in use
// (valid route entry or queued data), gating preemptive rebuilds.
func (r *Router) pendingOrActive(target netstack.NodeID) bool {
	if r.Waiting(target) {
		return true
	}
	_, ok := r.Table().Lookup(target, r.API.Now())
	return ok
}
