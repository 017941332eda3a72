package netstack

import "github.com/vanetlab/relroute/internal/mac"

// getPacket takes a zeroed packet from the pool (or allocates one). Callers
// own the result until they pass it to Send, Drop or Release.
func (w *World) getPacket() *Packet {
	if n := len(w.pktFree); n > 0 {
		p := w.pktFree[n-1]
		w.pktFree = w.pktFree[:n-1]
		return p
	}
	return &Packet{}
}

// copyPacket is a pooled copy of pkt for a router to own.
func (w *World) copyPacket(pkt *Packet) *Packet {
	cp := w.getPacket()
	*cp = *pkt
	return cp
}

// putPacket recycles a packet. The caller asserts no reference to it
// remains anywhere — see the ownership rules in the README's Performance
// section.
func (w *World) putPacket(p *Packet) {
	*p = Packet{}
	w.pktFree = append(w.pktFree, p)
}

// sendFrame is API.Send: it stamps link addresses, charges metrics, and
// hands the packet to the MAC, which owns it from here on: frameDone
// recycles it when the MAC is done with the frame, and a sender that cannot
// transmit recycles it here.
func (w *World) sendFrame(n *node, to NodeID, pkt *Packet) {
	if !n.active {
		w.sent(pkt)
		return
	}
	pkt.From = n.id
	pkt.To = to
	if pkt.Kind == KindData {
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

// delayedSend is a packet API.SendAfter holds until its send: the node
// that sends it and the link destination.
type delayedSend struct {
	n   *node
	to  NodeID
	pkt *Packet
}

// sendAfter holds (n, to, pkt) in a free slot of the delayed slab and
// schedules its send d seconds from now.
func (w *World) sendAfter(d float64, n *node, to NodeID, pkt *Packet) {
	var i int32
	if k := len(w.delayedFree); k > 0 {
		i = w.delayedFree[k-1]
		w.delayedFree = w.delayedFree[:k-1]
	} else {
		i = int32(len(w.delayed))
		w.delayed = append(w.delayed, delayedSend{})
	}
	w.delayed[i] = delayedSend{n: n, to: to, pkt: pkt}
	w.eng.AfterCall(d, w.delayedH, i)
}

// sendDelayed is the delayed send in slot i: the slot is read and freed
// before the packet is sent.
func (w *World) sendDelayed(i int32) {
	d := w.delayed[i]
	w.delayed[i] = delayedSend{}
	w.delayedFree = append(w.delayedFree, i)
	w.sendFrame(d.n, d.to, d.pkt)
}

// dispatch is the MAC upcall: consume beacons, filter by link
// destination, copy per receiver, and hand to the router. Every frame the
// MAC carries was built by sendBeacon around a *beacon or by sendFrame
// around a *Packet.
func (w *World) dispatch(to int32, f mac.Frame) {
	n := w.nodeByID(NodeID(to))
	if n == nil || !n.active {
		return
	}
	if b, ok := f.Payload.(*beacon); ok {
		w.hearBeacon(n, NodeID(f.From), b)
		return
	}
	pkt := f.Payload.(*Packet)
	if pkt.To != Broadcast && pkt.To != n.id {
		return // unicast not for us; no promiscuous data path
	}
	// a decoded non-beacon frame is positive link feedback for the
	// reliability plane (no-op until the sender has been heard beaconing)
	n.mon.RecordReceived(pkt.From)
	// the router owns its copy, drawn from the pool, until it passes it
	// to API.Send, API.Drop or API.Release
	cp := w.copyPacket(pkt)
	cp.Hops++
	n.router.HandlePacket(cp)
}

// txFailed is the MAC failure upcall: surface exhausted unicast ARQ to the
// sending router as a link-failure indication. Only a unicast fails, so
// the payload is never a beacon.
func (w *World) txFailed(from int32, f mac.Frame) {
	n := w.nodeByID(NodeID(from))
	if n == nil || !n.active {
		return
	}
	// feed the reliability plane before the router reacts (the router may
	// ForgetNeighbor, discarding the entry the evidence belongs to)
	n.mon.RecordSendFailed(NodeID(f.To))
	// the router owns a pooled copy, as a receiver does: the MAC calls
	// frameDone, which recycles the sent packet, after this upcall
	n.router.OnSendFailed(w.copyPacket(f.Payload.(*Packet)), NodeID(f.To))
}

// frameDone is the MAC's frame-lifecycle hook: by the time it fires, every
// receiver upcall for the frame has run, so the frame's payload, which
// only the stack holds, is recycled: a beacon to its own free list, a
// packet, with its payload, through sent.
func (w *World) frameDone(f mac.Frame) {
	if b, ok := f.Payload.(*beacon); ok {
		w.beaconFree = append(w.beaconFree, b)
	} else {
		w.sent(f.Payload.(*Packet))
	}
}

// Recycler is a payload that goes back to its maker's free list once the
// packet it was sent in is done with: the stack calls Recycle on the
// payload of a packet a router passed to Send, when the MAC is done with
// its frame (after every receiver has read it) or at once when the sender
// cannot transmit. A receiver's copy, a dropped or a released packet never
// recycles its payload: only the sender's own packet does. Only a
// broadcast payload may implement it, since a unicast one outlives its
// frame at the addressee (or at the sender, through OnSendFailed).
type Recycler interface {
	Recycle()
}

// sent recycles a packet a router passed to Send, its payload first.
func (w *World) sent(pkt *Packet) {
	if r, ok := pkt.Payload.(Recycler); ok {
		r.Recycle()
	}
	w.putPacket(pkt)
}
