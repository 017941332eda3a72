// Package niude implements the QoS routing algorithm of Niu et al. (DeReQ,
// survey Secs. IV-B and VII-B, marked NiuDe): route selection "considers
// not only the impact of the link duration but also the traffic density",
// so that "a selected route is not only reliable but also compliant with
// delay requirements in multimedia application".
//
// Discovery is AODV-shaped, but each RREQ accumulates two QoS quantities:
//
//   - path reliability: the product of per-link availability probabilities
//     P(link survives the delay requirement), from the Sec. VII link-
//     duration model over the beaconed kinematics ("the reliability is on
//     the basis of a probability function that predicts the future status
//     of a wireless link");
//   - expected path delay: per-hop transmission plus a contention penalty
//     growing with local density (the denser the relay's neighborhood, the
//     longer the MAC wait).
//
// The destination collects candidates for a window and answers the most
// reliable path whose expected delay meets the bound; the source
// proactively rebuilds before the predicted break ("if a link is going to
// break, the route will be rebuilt before the link breaks").
package niude

import (
	"math"

	"github.com/vanetlab/relroute/internal/linkstate"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

const (
	// horizon is the survival time links are scored against in seconds:
	// reliability = P(link lives ≥ horizon).
	horizon = 4.0
	// speedSigma is the σ of the relative-speed uncertainty in m/s.
	speedSigma = 4.0
	// delayBound is the QoS delay requirement in seconds a candidate path
	// must meet.
	delayBound = 0.5
	// minSurvival is the availability below which a link counts as broken:
	// a relay drops a copy that crossed one rather than forward it over a
	// link almost certain to break. It is the tail mass, 1e-6, that the
	// survival integral once left out of its window.
	minSurvival = 1e-6
)

// Router is a per-node NiuDe/DeReQ instance.
type Router struct {
	routing.OnDemand
	sel routing.Selection[routing.Candidate] // Metric: path reliability
}

// rreq accumulates the QoS path metrics.
type rreq struct {
	Origin      netstack.NodeID
	ReqID       uint64
	Target      netstack.NodeID
	Reliability float64 // product of per-link availability so far
	Delay       float64 // expected forwarding delay so far, seconds
}

// New returns a NiuDe router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{}
		r.Init(1.0, r.request)
		r.sel = routing.NewSelection(0.3, r.answer)
		return r
	}
}

// linkAvailability returns P(link to the beaconed neighbor survives the
// reliability horizon) under the Sec. VII model, via the reliability
// plane's shared survival helper, and 0 below minSurvival.
func (r *Router) linkAvailability(ls netstack.LinkState) float64 {
	obs := linkstate.Observer{Pos: r.API.Pos(), Vel: r.API.Vel(), Now: r.API.Now()}
	if p := linkstate.Survival(obs, ls, speedSigma, r.API.RangeEstimate(), 600, horizon); p >= minSurvival {
		return p
	}
	return 0
}

// hopDelay estimates this relay's forwarding delay: base transmission plus
// a contention penalty growing with local density (the traffic-density
// input of the NiuDe model).
func (r *Router) hopDelay() float64 {
	const base = 2e-3 // airtime + processing
	n := float64(r.API.NeighborCount())
	return base * (1 + n/8)
}

func (r *Router) request(dst netstack.NodeID, reqID uint64) *netstack.Packet {
	return r.Control(netstack.KindRREQ, netstack.Broadcast, 56,
		rreq{Origin: r.API.Self(), ReqID: reqID, Target: dst, Reliability: 1})
}

// HandlePacket implements netstack.Router.
func (r *Router) HandlePacket(pkt *netstack.Packet) {
	switch pkt.Kind {
	case netstack.KindRREQ:
		r.handleRREQ(pkt)
	case netstack.KindRREP:
		if target, reliability, ok := r.HandleReply(pkt, r.route); ok {
			r.API.Metrics().OnPathLifetime(horizon * math.Max(reliability, 0.01))
			// proactive maintenance: rebuild a second before the reliability
			// horizon elapses ("the route will be rebuilt before the link
			// breaks")
			r.RenewBefore(target, horizon, 1)
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
	// fold in the link just traversed
	avail := 0.0
	if ls, okLs := r.API.LinkState(pkt.From); okLs {
		avail = r.linkAvailability(ls)
	}
	reliability := req.Reliability * avail
	delay := req.Delay + r.hopDelay()
	// reverse route: keep the most reliable, loop-free by hop monotonicity
	r.MergeReverse(r.route(req.Origin, pkt.From, pkt.Hops, reliability))
	if req.Target == r.API.Self() {
		r.sel.Offer(r.API, routing.DupKey{Origin: req.Origin, Seq: req.ReqID}, admit(delay, reliability),
			routing.Candidate{From: pkt.From, Hops: pkt.Hops, Metric: reliability})
		r.API.Release(pkt)
		return
	}
	// relays forward the first copy only, and one with zero availability
	// in would only poison the product
	if r.Duplicate(req.Origin, req.ReqID) || reliability <= 0 {
		r.API.Release(pkt)
		return
	}
	cp := req
	cp.Reliability = reliability
	cp.Delay = delay
	pkt.Payload = cp
	r.Rebroadcast(pkt, false, 0)
}

// admit is the destination's QoS admission: delay bound first, then
// reliability. A copy over the bound scores −1, which still opens the
// selection window but never wins it; if none meets the bound, nobody is
// answered.
func admit(delay, reliability float64) float64 {
	if delay <= delayBound {
		return reliability
	}
	return -1
}

// route is a 6-second table entry ranked by path reliability.
func (r *Router) route(dst, via netstack.NodeID, hops int, reliability float64) routing.Route {
	return routing.Route{
		Dst: dst, NextHop: via, Hops: hops,
		Expiry: r.API.Now() + 6, Valid: true, Lifetime: reliability * 100,
	}
}

func (r *Router) answer(origin netstack.NodeID, c routing.Candidate) {
	r.Table().Upsert(r.route(origin, c.From, c.Hops, c.Metric))
	r.Reply(c.From, origin, 48, c.Metric)
}
