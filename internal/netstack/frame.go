package netstack

import "github.com/vanetlab/relroute/internal/mac"

// getPacket takes a packet from the pool (or allocates one). Callers own
// the result until they pass it to Send or Release.
func (w *World) getPacket() *Packet {
	if n := len(w.pktFree); n > 0 {
		p := w.pktFree[n-1]
		w.pktFree = w.pktFree[:n-1]
		return p
	}
	return &Packet{}
}

// putPacket recycles a packet. The caller asserts no reference to it
// remains anywhere — see the ownership rules in the README's Performance
// section.
func (w *World) putPacket(p *Packet) {
	*p = Packet{}
	w.pktFree = append(w.pktFree, p)
}

// sendFrame is API.Send and API.SendFinal: it stamps link addresses,
// charges metrics, and hands the packet to the MAC. final marks a packet
// the router gave up for good: frameDone recycles it when the MAC is done
// with the frame, and a sender that cannot transmit recycles it here.
func (w *World) sendFrame(n *node, to NodeID, pkt *Packet, final bool) {
	if !n.active {
		if final {
			w.putPacket(pkt)
		}
		return
	}
	pkt.final = final
	pkt.From = n.id
	pkt.To = to
	if pkt.Data {
		w.col.DataForwarded++
		w.col.DataBytes += pkt.Size
	} else {
		w.col.OnControl(pkt.Kind, pkt.Size)
		if w.inFaultWindow() {
			w.col.ControlFault++
		}
	}
	macTo := mac.Broadcast
	if to != Broadcast {
		macTo = int32(to)
	}
	w.mac.Send(mac.Frame{From: int32(n.id), To: macTo, Size: pkt.Size, Payload: pkt})
}

// dispatch is the MAC upcall: filter by link destination, consume beacons,
// clone per receiver, and hand to the router.
func (w *World) dispatch(to int32, f mac.Frame) {
	n := w.nodeByID(NodeID(to))
	if n == nil || !n.active {
		return
	}
	pkt, ok := f.Payload.(*Packet)
	if !ok {
		return
	}
	if pkt.To != Broadcast && pkt.To != n.id {
		return // unicast not for us; no promiscuous data path
	}
	if pkt.Kind == KindHello {
		w.hearBeacon(n, pkt)
		return
	}
	// a decoded non-beacon frame is positive link feedback for the
	// reliability plane (no-op until the sender has been heard beaconing)
	n.mon.RecordReceived(pkt.From)
	// the router owns its copy, drawn from the pool, and may hand it back
	// via API.Release when the packet's journey provably ends
	cp := w.getPacket()
	*cp = *pkt
	cp.final = false // the mark belongs to the sender's packet, not the copies
	cp.Hops++
	n.router.HandlePacket(cp)
}

// txFailed is the MAC failure upcall: surface exhausted unicast ARQ to the
// sending router as a link-failure indication.
func (w *World) txFailed(from int32, f mac.Frame) {
	n := w.nodeByID(NodeID(from))
	if n == nil || !n.active {
		return
	}
	pkt, ok := f.Payload.(*Packet)
	if !ok || pkt.Kind == KindHello {
		return
	}
	// feed the reliability plane before the router reacts (the router may
	// ForgetNeighbor, discarding the entry the evidence belongs to)
	n.mon.RecordSendFailed(NodeID(f.To))
	n.router.OnSendFailed(pkt.Clone(), NodeID(f.To))
}

// frameDone is the MAC's frame-lifecycle hook: by the time it fires, every
// receiver upcall for the frame has run, so the packets nobody but the
// stack still holds — beacons, and what a router sent with SendFinal — can
// be recycled.
func (w *World) frameDone(f mac.Frame) {
	pkt, ok := f.Payload.(*Packet)
	if !ok {
		return
	}
	if pkt.Kind == KindHello {
		w.helloFree = append(w.helloFree, pkt)
	} else if pkt.final {
		w.putPacket(pkt)
	}
}
