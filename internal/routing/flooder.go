package routing

import "github.com/vanetlab/relroute/internal/netstack"

// Flooder is the packet lifecycle every flooding protocol shares, embedded
// the way Carrier is: build the data packet, remember it so its echo is not
// news, and broadcast it; hand non-data and duplicates straight back to the
// stack's pool; deliver a first copy addressed to this node (which then
// never rebroadcasts) or to everyone; spend one TTL per hop, the only Drop a
// flood counts. Neither an origination nor a reception allocates once the
// pool is warm.
type Flooder struct {
	netstack.Base
	dup      DupCache
	relay    Relayer    // nil: always rebroadcast
	outbound Outbounder // nil: the core sends
}

// The hooks a flooding protocol may implement. Relays answers whether this
// node rebroadcasts a first copy still in flight; a false is a silent
// release, not a Drop. Outbound sees every packet this node is about to put
// on the air, its own (origin) or a rebroadcast. It may amend the packet
// and report false, leaving the sending to the core, or send it itself and
// report true.
type (
	Relayer interface {
		Relays(pkt *netstack.Packet) bool
	}
	Outbounder interface {
		Outbound(pkt *netstack.Packet, origin bool) (sent bool)
	}
)

// Init binds the protocol half: whichever hooks r, the router, implements.
func (f *Flooder) Init(r netstack.Router) {
	f.relay, _ = r.(Relayer)
	f.outbound, _ = r.(Outbounder)
	f.dup = *NewDupCache(30)
}

// NeedsBeacons implements netstack.Router: a flood keeps no neighbor state.
func (f *Flooder) NeedsBeacons() bool { return false }

// Originate implements netstack.Router. The source always transmits,
// whatever relay would say; the duplicate cache keys the packet by its UID,
// not by the packet.
func (f *Flooder) Originate(dst netstack.NodeID, size int) {
	pkt := NewData(f.API, dst, size)
	f.dup.Seen(DupKey{Origin: pkt.Src, Seq: pkt.UID}, f.API.Now())
	if f.outbound == nil || !f.outbound.Outbound(pkt, true) {
		f.API.Send(netstack.Broadcast, pkt)
	}
}

// HandlePacket implements netstack.Router.
func (f *Flooder) HandlePacket(pkt *netstack.Packet) {
	if pkt.Kind != netstack.KindData || f.dup.Seen(DupKey{Origin: pkt.Src, Seq: pkt.UID}, f.API.Now()) {
		f.API.Release(pkt)
		return
	}
	mine := pkt.Dst == f.API.Self()
	if mine || pkt.Dst == netstack.Broadcast {
		f.API.Deliver(pkt)
	}
	if mine || (f.relay != nil && !f.relay.Relays(pkt)) {
		f.API.Release(pkt)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		f.API.Drop(pkt)
		return
	}
	if f.outbound == nil || !f.outbound.Outbound(pkt, false) {
		f.API.Send(netstack.Broadcast, pkt)
	}
}
