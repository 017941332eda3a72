package netstack

import (
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mac"
)

// beacon is the HELLO payload.
type beacon struct {
	kind NodeKind
	pos  geom.Vec2
	vel  geom.Vec2
}

// needsBeacons reports whether any router of the run consumes HELLOs. An
// open world may start empty (a trace whose first track begins after t=0);
// a throwaway router from the join factory answers for the joiners then.
func (w *World) needsBeacons() bool {
	for _, n := range w.nodes {
		if n.router.NeedsBeacons() {
			return true
		}
	}
	return w.joinFactory != nil && len(w.nodes) == 0 && w.joinFactory().NeedsBeacons()
}

// startBeacon arms one node's HELLO ticker with a random phase and per-
// period jitter, drawn from the node's private stream so beacon phases
// never perturb any other component's randomness. The phase is relative
// to now, which keeps mid-run joiners' first beacons desynchronized
// instead of clamping them all onto the join tick's timestamp.
func (w *World) startBeacon(n *node) {
	phase := n.random().Float64() * beaconInterval
	w.eng.Ticker(w.eng.Now()+phase, beaconInterval, 0.1, n.random(), func() {
		w.sendBeacon(n)
	})
}

// sendBeacon broadcasts a HELLO for node n. Beacon packets (and their
// boxed payload) are recycled through helloFree once the MAC reports the
// frame's lifecycle complete — beacons never reach routers, so the stack
// is their only owner.
func (w *World) sendBeacon(n *node) {
	if !n.active {
		return
	}
	if w.beaconFilter != nil && w.beaconFilter(n.id, n.random()) {
		return // suppressed by a fault window; the draw stays on n's stream
	}
	var pkt *Packet
	if k := len(w.helloFree); k > 0 {
		pkt = w.helloFree[k-1]
		w.helloFree = w.helloFree[:k-1]
	} else {
		pkt = &Packet{Payload: new(beacon)}
	}
	b := pkt.Payload.(*beacon)
	b.kind, b.pos, b.vel = n.kind, n.pos, n.vel
	*pkt = Packet{ // unnumbered: UID stays 0
		Kind: KindHello, Proto: "hello",
		Src: n.id, Dst: Broadcast, From: n.id, To: Broadcast,
		TTL: 1, Size: beaconSize, Created: w.eng.Now(),
		Payload: b,
	}
	w.col.OnControl(KindHello, pkt.Size)
	if w.inFaultWindow() {
		w.col.ControlFault++
	}
	w.mac.Send(mac.Frame{From: int32(n.id), To: mac.Broadcast, Size: pkt.Size, Payload: pkt})
}

// hearBeacon is dispatch's beacon half: node n decoded a HELLO. The beacon
// goes into n's link table with an RSSI drawn on n's own stream, then to
// the router if it listens, and never further.
func (w *World) hearBeacon(n *node, pkt *Packet) {
	b, ok := pkt.Payload.(*beacon)
	if !ok {
		return
	}
	rssi := w.ch.RSSI(n.pos.Dist(b.pos), n.random())
	n.mon.Update(pkt.From, b.kind, b.pos, b.vel, rssi, w.eng.Now())
	if n.heard != nil {
		n.heard.OnBeacon(pkt.From, b.kind)
	}
	if w.faultBeaconHeard != nil {
		// someone heard pkt.From beaconing — the fault plane closes
		// its recovery-latency clock for that node, if one is open
		w.faultBeaconHeard(pkt.From)
	}
}
