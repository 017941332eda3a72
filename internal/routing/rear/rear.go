// Package rear implements the reliable alarm-message routing of Jiang et
// al. (survey Sec. VII-B, marked REAR): the receipt probability of a
// message at each neighbor is estimated "from the received signal
// strengths" using the wireless loss model (path loss plus shadowing/
// diffraction loss), and "the path with highest receipt probability is
// selected for routing". Next hops are chosen among progress-making
// neighbors by maximum estimated receipt probability rather than maximum
// progress, trading hop count for per-hop reliability.
package rear

import (
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/prob"
	"github.com/vanetlab/relroute/internal/routing"
)

// Option configures the router factory.
type Option func(*Router)

// WithReceiptModel overrides the signal model used to map RSSI to receipt
// probability. Without it the router consumes the reliability plane's
// estimate (API.LinkState.ReceiptProb), which under the default composite
// estimator is the same prob.DefaultReceiptModel mapping REAR always used.
func WithReceiptModel(m prob.ReceiptModel) Option {
	return func(r *Router) { r.model = &m }
}

// WithMinReceipt sets the minimum acceptable per-hop receipt probability
// (default 0.2); neighbors below it are not considered.
func WithMinReceipt(p float64) Option {
	return func(r *Router) { r.minReceipt = p }
}

// Router is a per-node REAR instance: the carry-and-forward core with
// receipt-probability next-hop selection.
type Router struct {
	routing.Carrier
	model      *prob.ReceiptModel // nil: use the reliability plane's estimate
	minReceipt float64
}

// New returns a REAR router factory.
func New(opts ...Option) netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{minReceipt: 0.2}
		for _, o := range opts {
			o(r)
		}
		// alarm messages must survive short voids: carry for up to 6 s
		r.Init(r.Name(), 6, r.route, r.retry)
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "REAR" }

// receiptProb estimates the probability that a frame sent to the neighbor
// is received. ls must come from API.LinkState/LinkStates: by default the
// reliability plane's prediction is consumed directly; a router-local
// model (WithReceiptModel) overrides it from the same smoothed RSSI.
func (r *Router) receiptProb(ls netstack.LinkState) float64 {
	if r.model != nil {
		return r.model.ProbFromRSSI(ls.MeanRSSI)
	}
	return ls.ReceiptProb
}

// route picks the progress-making neighbor with the highest receipt
// probability; with no candidate the packet is carried.
func (r *Router) route(pkt *netstack.Packet) routing.Hop {
	if ls, ok := r.API.LinkState(pkt.Dst); ok && r.receiptProb(ls) >= r.minReceipt {
		return routing.Forward(pkt.Dst)
	}
	dstPos, _, ok := r.API.LookupPosition(pkt.Dst)
	if !ok {
		return routing.Drop()
	}
	selfD := r.API.Pos().Dist(dstPos)
	best := netstack.Broadcast
	bestP := -1.0
	for _, nb := range r.API.LinkStates() {
		if nb.Pos.Dist(dstPos) >= selfD {
			continue // no progress
		}
		p := r.receiptProb(nb)
		if p < r.minReceipt {
			continue
		}
		if p > bestP {
			bestP = p
			best = nb.ID
		}
	}
	if best != netstack.Broadcast {
		return routing.Forward(best)
	}
	return routing.Carry()
}

// retry takes the first progress-making neighbor that is reliable enough
// rather than the best one: a carried packet is already late.
func (r *Router) retry(pkt *netstack.Packet) routing.Hop {
	if r.API.HasNeighbor(pkt.Dst) {
		return routing.Forward(pkt.Dst)
	}
	dstPos, _, ok := r.API.LookupPosition(pkt.Dst)
	if !ok {
		return routing.Carry()
	}
	selfD := r.API.Pos().Dist(dstPos)
	for _, nb := range r.API.LinkStates() {
		if nb.Pos.Dist(dstPos) < selfD && r.receiptProb(nb) >= r.minReceipt {
			return routing.Forward(nb.ID)
		}
	}
	return routing.Carry()
}
