// Package busferry implements Kitani et al.'s bus-based information
// sharing (survey Sec. V-B, marked "Bus"): buses on regular routes act as
// message ferries with larger storage than cars; cars hand packets to
// passing buses, buses carry them along their route, exchange them with
// other buses they meet, and deliver when the destination (or a car much
// closer to it) enters communication range. The design targets sparse
// traffic, where end-to-end V2V paths rarely exist — experiment E-F5's
// regime.
package busferry

import (
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// Custody bounds per node kind: "buses are assumed to have larger
// storage", so they hold more packets for longer.
const (
	carBufferTTL = 10.0 // seconds
	busBufferTTL = 60.0
	carBufferCap = 32 // packets
	busBufferCap = 512
)

// Router runs on both cars and buses; behaviour switches on the node kind.
// Cars keep a small buffer and opportunistically hand packets to buses;
// buses keep a large buffer and deliver/exchange. Custody is the
// carry-and-forward core's buffer, bounded here, behind a duplicate cache.
type Router struct {
	routing.Carrier
	dup *routing.DupCache
}

// New returns a bus-ferry router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router { return &Router{dup: routing.NewDupCache(60)} }
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "Bus" }

// Attach implements netstack.Router. The core is bound here, not in New:
// how long custody lasts depends on the node kind, which only api knows.
func (r *Router) Attach(api *netstack.API) {
	ttl := carBufferTTL
	if api.Kind() == netstack.BusNode {
		ttl = busBufferTTL
	}
	r.Init(r.Name(), ttl, r.accept, r.handOff)
	r.Carrier.Attach(api)
}

func (r *Router) isBus() bool { return r.API.Kind() == netstack.BusNode }

// HandlePacket implements netstack.Router: a packet this node already had
// in custody once is not taken again.
func (r *Router) HandlePacket(pkt *netstack.Packet) {
	if pkt.Kind == netstack.KindData && pkt.Dst != r.API.Self() &&
		r.dup.Seen(routing.DupKey{Origin: pkt.Src, Seq: pkt.UID}, r.API.Now()) {
		return
	}
	r.Carrier.HandlePacket(pkt)
}

// makeRoom evicts the oldest packet from a full buffer.
func (r *Router) makeRoom() {
	limit := carBufferCap
	if r.isBus() {
		limit = busBufferCap
	}
	if r.Carried() >= limit {
		r.DropOldest()
	}
}

// accept takes custody of a fresh packet unless it can leave at once: to
// its destination or, from a car, to a bus ("buses collect as much traffic
// information as possible from cars in the communication region").
func (r *Router) accept(pkt *netstack.Packet) routing.Hop {
	r.makeRoom()
	if r.API.HasNeighbor(pkt.Dst) {
		return routing.Forward(pkt.Dst)
	}
	if !r.isBus() {
		return r.toBus()
	}
	return routing.Carry()
}

// toBus hands off to the first bus in range.
func (r *Router) toBus() routing.Hop {
	for _, nb := range r.API.Neighbors() {
		if nb.Kind == netstack.BusNode {
			return routing.Forward(nb.ID)
		}
	}
	return routing.Carry()
}

// handOff retries a packet in custody; a bus also exchanges it with a bus
// clearly closer to the destination's last known position.
func (r *Router) handOff(pkt *netstack.Packet) routing.Hop {
	if r.API.HasNeighbor(pkt.Dst) {
		return routing.Forward(pkt.Dst)
	}
	if !r.isBus() {
		return r.toBus()
	}
	dstPos, _, ok := r.API.LookupPosition(pkt.Dst)
	if !ok {
		return routing.Carry()
	}
	selfD := r.API.Pos().Dist(dstPos)
	for _, nb := range r.API.Neighbors() {
		if nb.Kind == netstack.BusNode && nb.Pos.Dist(dstPos) < selfD*0.8 {
			return routing.Forward(nb.ID)
		}
	}
	return routing.Carry()
}

// OnSendFailed implements netstack.Router: custody handoff failed — take
// the packet back and leave the next try to the sweep.
func (r *Router) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	r.API.ForgetNeighbor(to)
	if pkt.Kind != netstack.KindData {
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		r.API.Drop(pkt)
		return
	}
	r.makeRoom()
	r.Hold(pkt)
}
