package routing

import "github.com/vanetlab/relroute/internal/netstack"

// Flooder is the packet lifecycle every flooding protocol shares, embedded
// the way Carrier is: build the data packet, remember it so its echo is not
// news, and broadcast it; hand non-data and duplicates straight back to the
// stack's pool; deliver a first copy addressed to this node (which then
// never rebroadcasts) or to everyone; spend one TTL per hop, the only Drop a
// flood counts; rebroadcast with SendFinal, so a reception allocates
// nothing. A packet addressed to its own source is delivered locally and
// never sent, Carrier.Originate's rule; no workload draws dst == src, so
// no golden shows it.
type Flooder struct {
	netstack.Base
	name     string
	dup      *DupCache
	relay    func(*netstack.Packet) bool
	outbound func(pkt *netstack.Packet, origin bool) (kept bool)
}

// Init binds the protocol half. name labels the packets this router
// builds. relay answers whether this node rebroadcasts a first copy still
// in flight (nil: always); a false is a silent release, not a Drop.
// outbound, if not nil, sees every packet this node is about to put on the
// air, its own (origin) or a rebroadcast. It may amend the packet and
// report false, leaving the sending to the core, or take custody: transmit
// it with API.Send, keep it, and report true. The core never releases a
// packet in custody, and neither may the protocol while a transmission of
// it can still sit in the MAC queue.
func (f *Flooder) Init(name string, relay func(*netstack.Packet) bool, outbound func(pkt *netstack.Packet, origin bool) (kept bool)) {
	f.name, f.relay, f.outbound = name, relay, outbound
	f.dup = NewDupCache(30)
}

// NeedsBeacons implements netstack.Router: a flood keeps no neighbor state.
func (f *Flooder) NeedsBeacons() bool { return false }

// Originate implements netstack.Router. The source always transmits,
// whatever relay would say.
func (f *Flooder) Originate(dst netstack.NodeID, size int) {
	pkt := NewData(f.API, f.name, dst, size)
	if dst == f.API.Self() {
		f.API.Deliver(pkt)
		return
	}
	f.dup.Seen(DupKey{Origin: pkt.Src, Seq: pkt.UID}, f.API.Now())
	if f.outbound == nil || !f.outbound(pkt, true) {
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
	if mine || (f.relay != nil && !f.relay(pkt)) {
		f.API.Release(pkt)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		f.API.Drop(pkt)
		f.API.Release(pkt)
		return
	}
	if f.outbound == nil || !f.outbound(pkt, false) {
		f.API.SendFinal(netstack.Broadcast, pkt)
	}
}
