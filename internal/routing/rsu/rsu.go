// Package rsu implements infrastructure-based routing (survey Sec. V,
// Fig. 5) in the style of He et al.'s DRR: stationary road-side units
// (RSUs) "are connected by backbone links with high bandwidth, low delay,
// and low bit error rates"; vehicles use V2V greedy forwarding where it
// works, and when the vehicular path is broken an RSU acts as a virtual
// equivalent node (VEN), relaying — or buffering — the packet over the
// backbone to the RSU nearest the destination's last known position.
// "After a vehicle successfully connects with an RSU, its position
// information is synchronized to all related RSU instantly."
package rsu

import (
	"math"
	"slices"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// Backbone is the wired interconnect shared by all RSU routers of a
// scenario, including the synchronized vehicle location registry.
type Backbone struct {
	// units lists the RSUs in attach order, which is ascending node ID:
	// the world numbers a static node as it attaches it. What a loop over
	// them schedules or prefers reaches the event queue, so it follows
	// this order.
	units []*UnitRouter
	// lastSeen maps a vehicle to the RSU that most recently heard its
	// beacon — the "position synchronized to all related RSU" registry.
	lastSeen map[netstack.NodeID]*UnitRouter
}

// NewBackbone returns an empty backbone.
func NewBackbone() *Backbone {
	return &Backbone{lastSeen: make(map[netstack.NodeID]*UnitRouter)}
}

// noteVehicle updates the location registry. On a handover (the vehicle
// surfaced under a different RSU) every packet buffered for it elsewhere
// is re-transferred to the new owner — the "position information is
// synchronized to all related RSU instantly" behaviour of DRR.
func (b *Backbone) noteVehicle(vehicle netstack.NodeID, owner *UnitRouter) {
	prev, had := b.lastSeen[vehicle]
	b.lastSeen[vehicle] = owner
	if had && prev == owner {
		return
	}
	for _, u := range b.units {
		if u == owner {
			continue
		}
		for _, pkt := range u.takeBuffered(vehicle) {
			b.transfer(u, owner, pkt)
		}
	}
}

// rsuFor returns the RSU that last heard the vehicle, or the RSU closest
// to the vehicle's registered position (the lowest ID among equally close
// ones).
func (b *Backbone) rsuFor(vehicle netstack.NodeID, fallbackPos geom.Vec2, hasPos bool) (*UnitRouter, bool) {
	if u, ok := b.lastSeen[vehicle]; ok {
		return u, true
	}
	if !hasPos {
		return nil, false
	}
	var best *UnitRouter
	bd := math.Inf(1)
	for _, u := range b.units {
		if d := u.API.Pos().DistSq(fallbackPos); d < bd {
			bd = d
			best = u
		}
	}
	return best, best != nil
}

// transfer moves a packet over the backbone to the target RSU, 2 ms one
// way.
func (b *Backbone) transfer(from *UnitRouter, to *UnitRouter, pkt *netstack.Packet) {
	const delay = 2e-3
	from.API.After(delay, func() { to.receiveFromBackbone(pkt) })
}

// bufferTTL bounds how long, in seconds, an RSU holds a packet for an
// absent vehicle.
const bufferTTL = 30.0

// UnitRouter runs on an RSU node: it delivers buffered packets to
// destination vehicles entering its coverage and accepts handoffs from
// vehicles and the backbone.
type UnitRouter struct {
	netstack.Base
	backbone *Backbone
	buffered map[netstack.NodeID][]*netstack.Packet
	dsts     []netstack.NodeID // Tick's sorted keys of buffered
}

// NewUnit returns a router for one RSU attached to the backbone.
func NewUnit(b *Backbone) *UnitRouter {
	return &UnitRouter{backbone: b, buffered: make(map[netstack.NodeID][]*netstack.Packet)}
}

// Attach implements netstack.Router and arms the 0.25 s buffer flush.
func (u *UnitRouter) Attach(api *netstack.API) {
	u.Base.Attach(api)
	u.backbone.units = append(u.backbone.units, u)
	api.Every(0.25, 0.25, u)
}

// OnBeacon implements netstack.BeaconListener: every vehicle beacon an RSU
// hears synchronizes the location registry.
func (u *UnitRouter) OnBeacon(from netstack.NodeID, kind netstack.NodeKind) {
	if kind == netstack.Vehicle || kind == netstack.BusNode {
		u.backbone.noteVehicle(from, u)
	}
}

// Originate implements netstack.Router: RSUs originate no app data in the
// experiments; an RSU routes its own as it relays a vehicle's.
func (u *UnitRouter) Originate(dst netstack.NodeID, size int) {
	u.HandlePacket(routing.NewData(u.API, dst, size))
}

// HandlePacket implements netstack.Router. Every packet an RSU hears is
// data: DRR's vehicles and RSUs send nothing else.
func (u *UnitRouter) HandlePacket(pkt *netstack.Packet) {
	if pkt.Dst == u.API.Self() {
		u.API.Deliver(pkt)
		u.API.Release(pkt)
		return
	}
	// direct delivery if the destination is under our coverage
	if u.API.HasNeighbor(pkt.Dst) {
		u.handOver(pkt)
		return
	}
	// backbone transfer toward the RSU that owns the destination
	dstPos, _, hasPos := u.API.LookupPosition(pkt.Dst)
	target, ok := u.backbone.rsuFor(pkt.Dst, dstPos, hasPos)
	if ok && target != u {
		u.backbone.transfer(u, target, pkt)
		return
	}
	// we are the best RSU: buffer as a virtual equivalent node
	u.buffer(pkt)
}

// receiveFromBackbone accepts a packet transferred over the wire.
func (u *UnitRouter) receiveFromBackbone(pkt *netstack.Packet) {
	if u.API.HasNeighbor(pkt.Dst) {
		u.handOver(pkt)
		return
	}
	u.buffer(pkt)
}

// handOver sends a packet to its destination, a neighbor, spending one TTL;
// out of hops, it is dropped.
func (u *UnitRouter) handOver(pkt *netstack.Packet) {
	pkt.TTL--
	if pkt.Expired() {
		u.API.Drop(pkt)
		return
	}
	u.API.Send(pkt.Dst, pkt)
}

func (u *UnitRouter) buffer(pkt *netstack.Packet) {
	u.buffered[pkt.Dst] = append(u.buffered[pkt.Dst], pkt)
}

// takeBuffered removes and returns every packet buffered for dst (used by
// the backbone during a handover).
func (u *UnitRouter) takeBuffered(dst netstack.NodeID) []*netstack.Packet {
	list := u.buffered[dst]
	delete(u.buffered, dst)
	return list
}

// Tick implements netstack.Periodic, the buffer flush: it delivers
// buffered packets whose destinations have arrived and expires stale ones,
// destination by destination in ID order: the sends reach the MAC queue in
// the order of this loop. It reuses dsts, as nothing in the loop comes back
// here: a failed send returns as an event.
func (u *UnitRouter) Tick() {
	now := u.API.Now()
	u.dsts = u.dsts[:0]
	for dst := range u.buffered {
		u.dsts = append(u.dsts, dst)
	}
	slices.Sort(u.dsts)
	for _, dst := range u.dsts {
		list := u.buffered[dst]
		if u.API.HasNeighbor(dst) {
			for _, pkt := range list {
				u.handOver(pkt)
			}
			delete(u.buffered, dst)
			continue
		}
		keep := list[:0]
		for _, pkt := range list {
			if now-pkt.Created > bufferTTL {
				u.API.Drop(pkt)
				continue
			}
			keep = append(keep, pkt)
		}
		if len(keep) == 0 {
			delete(u.buffered, dst)
		} else {
			u.buffered[dst] = keep
		}
	}
}

// OnSendFailed implements netstack.Router: the vehicle left coverage
// mid-delivery — re-buffer and retry on the sweep. An RSU sends only data
// to its destination (handOver), so the packet is that.
func (u *UnitRouter) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	u.API.ForgetNeighbor(to)
	u.buffer(pkt)
}

// Buffered exposes the buffer depth for tests.
func (u *UnitRouter) Buffered() int {
	n := 0
	for _, l := range u.buffered {
		n += len(l)
	}
	return n
}

// VehicleRouter runs on vehicles in the DRR scenario: greedy V2V toward
// the destination while progress exists; otherwise hand the packet to any
// RSU in range (the differentiated reliable path), falling back to a short
// carry while neither works.
type VehicleRouter struct {
	routing.Carrier
}

// NewVehicle returns a factory for DRR vehicle routers.
func NewVehicle() netstack.RouterFactory {
	return func() netstack.Router {
		v := &VehicleRouter{}
		v.Init(5, v)
		return v
	}
}

func (v *VehicleRouter) NextHop(pkt *netstack.Packet) routing.Hop {
	if v.API.HasNeighbor(pkt.Dst) {
		return routing.Forward(pkt.Dst)
	}
	var buf [routing.NeighborBuf]netstack.Neighbor
	nbs := v.API.AppendNeighbors(buf[:0])
	// greedy V2V progress through vehicles only
	if dstPos, _, ok := v.API.LookupPosition(pkt.Dst); ok {
		self := v.API.Pos().Dist(dstPos)
		var best netstack.NodeID
		bestD := self
		found := false
		for _, nb := range nbs {
			if nb.Kind == netstack.RSU {
				continue
			}
			if d := nb.Pos.Dist(dstPos); d < bestD {
				bestD = d
				best = nb.ID
				found = true
			}
		}
		if found {
			return routing.Forward(best)
		}
	}
	// no vehicular progress: differentiated path through the nearest RSU
	var rsuID netstack.NodeID
	rsuFound := false
	rsuDist := math.Inf(1)
	for _, nb := range nbs {
		if nb.Kind != netstack.RSU {
			continue
		}
		if d := nb.Pos.DistSq(v.API.Pos()); d < rsuDist {
			rsuDist = d
			rsuID = nb.ID
			rsuFound = true
		}
	}
	if rsuFound {
		return routing.Forward(rsuID)
	}
	return routing.Carry()
}

// Retry climbs the ladder the other way round for a packet V2V progress
// already failed once: any RSU in range first, then any vehicle closer to
// the destination.
func (v *VehicleRouter) Retry(pkt *netstack.Packet) routing.Hop {
	if v.API.HasNeighbor(pkt.Dst) {
		return routing.Forward(pkt.Dst)
	}
	var buf [routing.NeighborBuf]netstack.Neighbor
	for _, nb := range v.API.AppendNeighbors(buf[:0]) {
		if nb.Kind == netstack.RSU {
			return routing.Forward(nb.ID)
		}
	}
	// no RSU among the neighbors from here on
	if dstPos, _, ok := v.API.LookupPosition(pkt.Dst); ok {
		return routing.FirstCloser(v.API, dstPos)
	}
	return routing.Carry()
}
