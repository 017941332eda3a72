package netstack

import (
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mac"
)

// beacon is a HELLO: the payload of a beacon frame, which is never a
// Packet.
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
	w.eng.Ticker(w.eng.Now()+phase, beaconInterval, 0.1, n.random(), w.beaconH, int32(n.id))
}

// sendBeacon broadcasts a HELLO for node n. The beacon record is the
// frame's payload and the sender is the frame's From; records are recycled
// through beaconFree once the MAC reports the frame's lifecycle complete —
// beacons never reach routers, so the stack is their only owner.
func (w *World) sendBeacon(n *node) {
	if !n.active {
		return
	}
	if w.beaconFilter != nil && w.beaconFilter(n.id, n.random()) {
		return // suppressed by a fault window; the draw stays on n's stream
	}
	var b *beacon
	if k := len(w.beaconFree); k > 0 {
		b = w.beaconFree[k-1]
		w.beaconFree = w.beaconFree[:k-1]
	} else {
		b = new(beacon)
	}
	*b = beacon{kind: n.kind, pos: n.pos, vel: n.vel}
	w.col.OnControl(KindHello, beaconSize)
	if w.inFaultWindow() {
		w.col.ControlFault++
	}
	w.mac.Send(mac.Frame{From: int32(n.id), To: mac.Broadcast, Size: beaconSize, Payload: b})
}

// hearBeacon is dispatch's beacon half: node n decoded from's HELLO b. The
// beacon goes into n's link table with an RSSI drawn on n's own stream,
// then to the router if it listens, and never further.
func (w *World) hearBeacon(n *node, from NodeID, b *beacon) {
	rssi := w.ch.RSSI(n.pos.Dist(b.pos), n.random())
	n.mon.Update(from, b.kind, b.pos, b.vel, rssi, w.eng.Now())
	if n.heard != nil {
		n.heard.OnBeacon(from, b.kind)
	}
	if w.faultBeaconHeard != nil {
		// someone heard from beaconing — the fault plane closes its
		// recovery-latency clock for that node, if one is open
		w.faultBeaconHeard(from)
	}
}
