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
type Carrier struct {
	netstack.Base
	name    string
	timeout float64
	route   func(*netstack.Packet) Hop
	retry   func(*netstack.Packet) Hop
	carried []carried
}

type carried struct {
	pkt   *netstack.Packet
	since float64
}

// Init binds the protocol half. name labels the packets this router
// builds; route decides for a packet that was just originated, received or
// handed back by the MAC; retry decides, at each sweep, for a packet carried
// for at most timeout seconds.
func (c *Carrier) Init(name string, timeout float64, route, retry func(*netstack.Packet) Hop) {
	c.name, c.timeout, c.route, c.retry = name, timeout, route, retry
}

// Attach implements netstack.Router and arms the sweep at a per-node phase.
func (c *Carrier) Attach(api *netstack.API) {
	c.Base.Attach(api)
	api.Every(0.5+api.Rand().Float64()*0.1, 0.5, c.sweep)
}

// Originate implements netstack.Router.
func (c *Carrier) Originate(dst netstack.NodeID, size int) {
	pkt := NewData(c.API, c.name, dst, size)
	if dst == c.API.Self() {
		c.API.Deliver(pkt)
		return
	}
	c.Route(pkt)
}

// HandlePacket implements netstack.Router.
func (c *Carrier) HandlePacket(pkt *netstack.Packet) {
	if pkt.Kind != netstack.KindData {
		return
	}
	if pkt.Dst == c.API.Self() {
		c.API.Deliver(pkt)
		return
	}
	c.hop(pkt)
}

// OnSendFailed implements netstack.Router: the neighbor table was stale —
// forget the neighbor, then route the packet again.
func (c *Carrier) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	c.API.ForgetNeighbor(to)
	if pkt.Kind != netstack.KindData {
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
	if !c.send(c.route(pkt), pkt) {
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
	c.API.Drop(c.carried[0].pkt)
	c.carried = c.carried[1:]
}

// Carried reports how many packets are buffered.
func (c *Carrier) Carried() int { return len(c.carried) }

// sweep expires packets carried past the timeout and retries the rest, in
// the order they were buffered.
func (c *Carrier) sweep() {
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
		if !c.send(c.retry(e.pkt), e.pkt) {
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
	for _, nb := range api.Neighbors() {
		if nb.Pos.Dist(target) < self {
			return Forward(nb.ID)
		}
	}
	return Carry()
}
