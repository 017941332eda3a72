package routing

import (
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
)

// Hop is what a carry-and-forward protocol decides for one data packet at
// one node: forward it to a neighbor, keep carrying it, or drop it.
type Hop struct {
	verdict verdict
	to      netstack.NodeID
}

type verdict uint8

const (
	carry verdict = iota
	forward
	drop
)

// Forward hands the packet to neighbor to.
func Forward(to netstack.NodeID) Hop { return Hop{forward, to} }

// Carry keeps the packet in this node's buffer until a later sweep.
func Carry() Hop { return Hop{verdict: carry} }

// Drop gives the packet up.
func Drop() Hop { return Hop{verdict: drop} }

// Carrier is the packet lifecycle every store-carry-forward protocol
// shares, embedded the way netstack.Base is: build the data packet, deliver
// it if it is for this node, spend one TTL per hop, forget a neighbor a
// unicast failed to and route again, buffer what has no next hop yet, and
// every 0.5 s offer each buffered packet another try until the carry
// timeout drops it. Which neighbor a packet goes to is the protocol's,
// bound once in Init: one choice for a packet that just arrived and one for
// a packet being carried.
//
// A packet has one holder at a time: a delivery hands the packet back to
// the stack's pool with API.Release, and a drop with API.Drop. A protocol
// on the core keeps no reference to a packet past its verdict.
type Carrier struct {
	netstack.Base
	timeout float64
	hooks   CarryHooks
	carried []carried
}

type carried struct {
	pkt   *netstack.Packet
	since float64
}

// CarryHooks is the protocol half of a Carrier. NextHop decides for a packet
// just originated, received or handed back by the MAC; Retry decides, at
// each sweep, for a packet carried for at most Init's timeout seconds.
type CarryHooks interface {
	NextHop(pkt *netstack.Packet) Hop
	Retry(pkt *netstack.Packet) Hop
}

// Init binds the protocol half.
func (c *Carrier) Init(timeout float64, hooks CarryHooks) {
	c.timeout, c.hooks = timeout, hooks
}

// Attach implements netstack.Router and arms the sweep at a per-node phase.
func (c *Carrier) Attach(api *netstack.API) {
	c.Base.Attach(api)
	api.Every(0.5+api.Rand().Float64()*0.1, 0.5, c)
}

// Originate implements netstack.Router.
func (c *Carrier) Originate(dst netstack.NodeID, size int) {
	c.Route(NewData(c.API, dst, size))
}

// HandlePacket implements netstack.Router.
func (c *Carrier) HandlePacket(pkt *netstack.Packet) {
	if pkt.Kind != netstack.KindData {
		c.API.Release(pkt)
		return
	}
	if pkt.Dst == c.API.Self() {
		c.API.Deliver(pkt)
		c.API.Release(pkt)
		return
	}
	c.hop(pkt)
}

// OnSendFailed implements netstack.Router: the neighbor table was stale —
// forget the neighbor, then route the packet again.
func (c *Carrier) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	c.API.ForgetNeighbor(to)
	if pkt.Kind != netstack.KindData {
		c.API.Release(pkt)
		return
	}
	c.hop(pkt)
}

func (c *Carrier) hop(pkt *netstack.Packet) {
	pkt.TTL--
	if pkt.Expired() {
		c.API.Drop(pkt)
		return
	}
	c.Route(pkt)
}

// Route acts on the protocol's choice for a fresh packet.
func (c *Carrier) Route(pkt *netstack.Packet) {
	if !c.send(c.hooks.NextHop(pkt), pkt) {
		c.Hold(pkt)
	}
}

// send carries out a forward or drop decision; it reports false for carry.
func (c *Carrier) send(h Hop, pkt *netstack.Packet) bool {
	switch h.verdict {
	case forward:
		c.API.Send(h.to, pkt)
	case drop:
		c.API.Drop(pkt)
	default:
		return false
	}
	return true
}

// Hold buffers the packet; its carry timeout starts now.
func (c *Carrier) Hold(pkt *netstack.Packet) {
	c.carried = append(c.carried, carried{pkt, c.API.Now()})
}

// DropOldest drops the packet carried longest, for protocols that bound
// their buffer.
func (c *Carrier) DropOldest() {
	pkt := c.carried[0].pkt
	c.carried = c.carried[1:]
	c.API.Drop(pkt)
}

// Carried reports how many packets are buffered.
func (c *Carrier) Carried() int { return len(c.carried) }

// Tick implements netstack.Periodic, the carry sweep: it expires packets
// carried past the timeout and retries the rest, in the order they were
// buffered.
func (c *Carrier) Tick() {
	if len(c.carried) == 0 {
		return
	}
	now := c.API.Now()
	keep := c.carried[:0]
	for _, e := range c.carried {
		if now-e.since > c.timeout {
			c.API.Drop(e.pkt)
			continue
		}
		if !c.send(c.hooks.Retry(e.pkt), e.pkt) {
			keep = append(keep, e)
		}
	}
	c.carried = keep
}

// FirstCloser is the retry rule of the protocols that spend their scoring
// only on fresh packets: forward to the first neighbor, in ID order,
// strictly closer to target than this node; carry on if there is none.
func FirstCloser(api *netstack.API, target geom.Vec2) Hop {
	self := api.Pos().Dist(target)
	var buf [NeighborBuf]netstack.Neighbor
	for _, nb := range api.AppendNeighbors(buf[:0]) {
		if nb.Pos.Dist(target) < self {
			return Forward(nb.ID)
		}
	}
	return Carry()
}
