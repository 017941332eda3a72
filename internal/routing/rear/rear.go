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
	"github.com/vanetlab/relroute/internal/routing"
)

// minReceipt is the minimum acceptable per-hop receipt probability;
// neighbors below it are not considered.
const minReceipt = 0.2

// Router is a per-node REAR instance: the carry-and-forward core with
// receipt-probability next-hop selection.
type Router struct {
	routing.Carrier
}

// New returns a REAR router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{}
		// alarm messages must survive short voids: carry for up to 6 s
		r.Init(r.Name(), 6, r.route, r.retry)
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "REAR" }

// reliable reports whether a frame sent to the neighbor is likely enough
// to be received to consider it at all. ls must come from
// API.LinkState/LinkStates: the receipt probability is the reliability
// plane's, which under the default composite estimator is the
// prob.DefaultReceiptModel mapping of the smoothed RSSI.
func reliable(ls netstack.LinkState) bool { return ls.ReceiptProb >= minReceipt }

// route picks the progress-making neighbor with the highest receipt
// probability; with no candidate the packet is carried.
func (r *Router) route(pkt *netstack.Packet) routing.Hop {
	if ls, ok := r.API.LinkState(pkt.Dst); ok && reliable(ls) {
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
		if reliable(nb) && nb.ReceiptProb > bestP {
			bestP = nb.ReceiptProb
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
		if nb.Pos.Dist(dstPos) < selfD && reliable(nb) {
			return routing.Forward(nb.ID)
		}
	}
	return routing.Carry()
}
