package netstack

import "github.com/vanetlab/relroute/internal/mobility"

// AddFlow schedules a constant-bit-rate application flow: count packets of
// size bytes from src to dst, one every interval seconds starting at start.
// A flow's endpoints differ: it panics when src == dst, so no router ever
// originates a packet addressed to its own node.
func (w *World) AddFlow(src, dst NodeID, start, interval float64, count, size int) {
	if src == dst {
		panic("netstack: flow from a node to itself")
	}
	w.scheduleFlow(start, interval, count, size, func() (*node, NodeID) { return w.nodeByID(src), dst })
}

// AddVehicleFlow is AddFlow addressed by mobility vehicle IDs, resolved to
// nodes at each packet's send time — the flow primitive for open worlds,
// where the endpoints may not have joined yet when the flow is wired (a
// trace whose tracks start mid-run). Packets are only originated while the
// source is an active member and the destination has a known node. Like
// AddFlow, it panics when src == dst.
func (w *World) AddVehicleFlow(src, dst mobility.VehicleID, start, interval float64, count, size int) {
	if src == dst {
		panic("netstack: flow from a vehicle to itself")
	}
	w.scheduleFlow(start, interval, count, size, func() (*node, NodeID) {
		dn := w.vehicleNode(dst)
		if dn == nil {
			return nil, 0
		}
		return w.vehicleNode(src), dn.id
	})
}

// scheduleFlow schedules the count sends of one CBR flow. endpoints runs at
// each send time and names the source node and the destination address; a
// nil or inactive source skips that packet.
func (w *World) scheduleFlow(start, interval float64, count, size int, endpoints func() (*node, NodeID)) {
	send := func() {
		src, dst := endpoints()
		if src == nil || !src.active {
			return
		}
		w.col.OnDataSent()
		if w.inFaultWindow() {
			w.col.DataSentFault++
		}
		src.router.Originate(dst, size)
	}
	for i := 0; i < count; i++ {
		w.eng.At(start+float64(i)*interval, send)
	}
}
