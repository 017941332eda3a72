package routing

import (
	"math"

	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/netstack"
)

// Discovery is the source half every on-demand protocol shares, embedded
// the way netstack.Base is: data for a destination without a route waits
// in a bounded queue while a request goes out, the request is repeated
// twice if nothing answers within the timeout, and after the third silence
// the queue is dropped. What "has a route" means, how data leaves on one,
// and what a request looks like are the protocol's DiscoveryHooks, bound
// once in Init: a route table (OnDemand), or a whole path (SourceRouted,
// for DSR's cache and the ticket router's probed routes).
//
// A queued packet is the queue's alone, so Discovery hands back to the
// stack's pool every packet it drops — evicted from a full queue, expired,
// unrouted when the answer comes, or queued for a discovery given up;
// forward takes the packet for good.
type Discovery struct {
	netstack.Base
	open  map[netstack.NodeID]discovery // made at the first discovery
	reqID uint64

	timeout float64
	hooks   DiscoveryHooks
}

const (
	// queueCap is how many packets a discovery holds for its destination.
	queueCap = 16
	// queueWait is how long, in seconds, a queued packet stays fresh.
	queueWait = 10.0
)

// discovery is one destination's discovery in flight: the requests left
// after the one out and the data waiting for the answer, oldest first. It
// exists exactly while the discovery does, so data never waits without a
// deadline that will release or drop it.
type discovery struct {
	left  int
	queue []*netstack.Packet
}

// DiscoveryHooks is the protocol half of a Discovery. Routed reports
// whether data for dst can leave now; Forward sends a packet whose
// destination Routed just accepted; Request sends round reqID of dst's
// discovery and reports false when there was nobody to ask, which ends the
// discovery at once. A silent round is repeated after Init's timeout.
type DiscoveryHooks interface {
	Routed(dst netstack.NodeID) bool
	Forward(pkt *netstack.Packet)
	Request(dst netstack.NodeID, reqID uint64) bool
}

// Init binds the protocol half.
func (d *Discovery) Init(timeout float64, hooks DiscoveryHooks) {
	d.timeout, d.hooks = timeout, hooks
}

// Originate implements netstack.Router: send on the route there is, or
// queue and discover.
func (d *Discovery) Originate(dst netstack.NodeID, size int) {
	pkt := NewData(d.API, dst, size)
	if d.hooks.Routed(dst) {
		d.hooks.Forward(pkt)
		return
	}
	d.Queue(pkt)
}

// Queue parks a data packet until its destination is routed, starting a
// discovery for it unless one is in flight; a full queue drops its oldest
// packet.
func (d *Discovery) Queue(pkt *netstack.Packet) {
	o, inFlight := d.open[pkt.Dst]
	if !inFlight {
		d.start(pkt.Dst, []*netstack.Packet{pkt})
		return
	}
	if len(o.queue) >= queueCap {
		d.API.Drop(o.queue[0])
		o.queue = o.queue[1:]
	}
	o.queue = append(o.queue, pkt)
	d.open[pkt.Dst] = o
}

// Start begins a discovery for dst unless one is in flight.
func (d *Discovery) Start(dst netstack.NodeID) {
	if _, inFlight := d.open[dst]; !inFlight {
		d.start(dst, nil)
	}
}

// start opens dst's discovery, holding queue, and sends its first of
// three requests.
func (d *Discovery) start(dst netstack.NodeID, queue []*netstack.Packet) {
	if d.open == nil {
		d.open = make(map[netstack.NodeID]discovery)
	}
	d.open[dst] = discovery{left: 2, queue: queue}
	d.ask(dst)
}

func (d *Discovery) ask(dst netstack.NodeID) {
	d.API.Metrics().RouteDiscoveries++
	d.reqID++
	if !d.hooks.Request(dst, d.reqID) {
		d.giveUp(dst)
		return
	}
	d.API.After(d.timeout, func() { d.deadline(dst) })
}

func (d *Discovery) deadline(dst netstack.NodeID) {
	o, inFlight := d.open[dst]
	if !inFlight {
		return // answered
	}
	if d.hooks.Routed(dst) {
		d.Answered(dst)
		return
	}
	if o.left <= 0 {
		d.giveUp(dst)
		return
	}
	o.left--
	d.open[dst] = o
	d.ask(dst)
}

func (d *Discovery) giveUp(dst netstack.NodeID) {
	queue := d.open[dst].queue
	delete(d.open, dst)
	for _, p := range queue {
		d.API.Drop(p)
	}
}

// RenewBefore is the route maintenance of the protocols that predict how
// long a route lives: margin seconds before a route to dst predicted to
// live life seconds — capped as its table entry is (CapLife) — runs out,
// but no sooner than 0.1 s from now, it renews the route. A route that
// never breaks (link.Forever) is never renewed.
func (d *Discovery) RenewBefore(dst netstack.NodeID, life, margin float64) {
	if life == link.Forever {
		return
	}
	d.API.After(math.Max(CapLife(life)-margin, 0.1), func() { d.renew(dst) })
}

// renew starts a discovery for dst ahead of a predicted route break while
// the route is still in use — data can leave on it or waits for it —
// counting a route repair.
func (d *Discovery) renew(dst netstack.NodeID) {
	if !d.hooks.Routed(dst) && len(d.open[dst].queue) == 0 {
		return
	}
	d.API.Metrics().RouteRepairs++
	d.Start(dst)
}

// Answered ends the discovery for dst and releases its queue onto the
// route the answer installed: a packet that waited longer than queueWait,
// or that finds no route, is dropped.
func (d *Discovery) Answered(dst netstack.NodeID) {
	queue := d.open[dst].queue
	delete(d.open, dst)
	now, routed := d.API.Now(), d.hooks.Routed(dst)
	for _, p := range queue {
		if routed && now-p.Created <= queueWait {
			d.hooks.Forward(p)
		} else {
			d.API.Drop(p)
		}
	}
}

// OnDemand is the AODV-shaped core of the table-driven on-demand
// protocols (AODV, PBR, Taleb, Abedi, NiuDe): a Discovery whose route is a
// next-hop table entry and whose request is a flooded RREQ. It owns the
// route table and the duplicate cache and implements, once, flooding the
// request, hop-by-hop data forwarding, the route reply and how each hop
// installs and relays it, the reverse-route merge rule and link-break
// handling. A protocol embeds it and keeps its request payload and how it
// handles a copy; the protocols that fold a link metric into the RREQ and
// let the destination choose embed it through Selective.
type OnDemand struct {
	Discovery
	table Table
	dup   DupCache
	rreq  Requester
	// broken is InvalidateVia's scratch: a neighbor loss reads only the
	// count of the routes it broke.
	broken []netstack.NodeID
}

// Requester builds (NewPacket does most of it) the RREQ an OnDemand floods.
type Requester interface {
	NewRequest(dst netstack.NodeID, reqID uint64) *netstack.Packet
}

// Init binds the protocol's discovery timeout and its Requester.
func (c *OnDemand) Init(timeout float64, rreq Requester) {
	c.dup, c.rreq = *NewDupCache(15), rreq
	c.Discovery.Init(timeout, c)
}

// Table exposes the route table.
func (c *OnDemand) Table() *Table { return &c.table }

func (c *OnDemand) Routed(dst netstack.NodeID) bool {
	_, ok := c.table.Lookup(dst, c.API.Now())
	return ok
}

func (c *OnDemand) Forward(pkt *netstack.Packet) {
	rt, _ := c.table.Get(pkt.Dst)
	c.API.Send(rt.NextHop, pkt)
}

func (c *OnDemand) Request(dst netstack.NodeID, reqID uint64) bool {
	pkt := c.rreq.NewRequest(dst, reqID)
	c.Duplicate(pkt.Src, reqID)
	c.API.Send(netstack.Broadcast, pkt)
	return true
}

// Duplicate records the flooded request (origin, reqID) and reports whether
// this node had already seen it.
func (c *OnDemand) Duplicate(origin netstack.NodeID, reqID uint64) bool {
	return c.dup.Seen(DupKey{Origin: origin, Seq: reqID}, c.API.Now())
}

// ForwardData is hop-by-hop table forwarding, for every router that keeps a
// Table (OnDemand's, DSDV): deliver a data packet addressed to this node,
// otherwise spend one TTL and send it to the next hop t holds for its
// destination; out of hops or without a route it is dropped. It takes the
// packet.
func ForwardData(api *netstack.API, t *Table, pkt *netstack.Packet) {
	if pkt.Dst == api.Self() {
		api.Deliver(pkt)
		api.Release(pkt)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		api.Drop(pkt)
		return
	}
	if rt, ok := t.Lookup(pkt.Dst, api.Now()); ok {
		api.Send(rt.NextHop, pkt)
		return
	}
	api.Drop(pkt)
}

// Relay passes a unicast control packet one hop toward dst along the
// table; without a route, or out of TTL, it is dropped here. It takes the
// packet.
func (c *OnDemand) Relay(pkt *netstack.Packet, dst netstack.NodeID) {
	rt, ok := c.table.Lookup(dst, c.API.Now())
	if !ok {
		c.API.Drop(pkt)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		c.API.Drop(pkt)
		return
	}
	c.API.Send(rt.NextHop, pkt)
}

// Rebroadcast passes a flooded request on: it spends one TTL and, unless
// that was the last, broadcasts the request now or, when delayed, delay
// seconds later, through the stack's delayed send even when delay is 0. It
// takes the packet; out of TTL, the request is dropped here.
func (c *OnDemand) Rebroadcast(pkt *netstack.Packet, delayed bool, delay float64) {
	if c.spend(pkt) {
		c.broadcast(pkt, delayed, delay)
	}
}

// spend is Rebroadcast's TTL step: it spends one TTL and reports whether
// the request may go on; if not, it drops the request.
func (c *OnDemand) spend(pkt *netstack.Packet) bool {
	pkt.TTL--
	if pkt.Expired() {
		c.API.Drop(pkt)
		return false
	}
	return true
}

// broadcast is Rebroadcast's send: now or, when delayed, through the
// stack's delayed send.
func (c *OnDemand) broadcast(pkt *netstack.Packet, delayed bool, delay float64) {
	if delayed {
		c.API.SendAfter(delay, netstack.Broadcast, pkt)
		return
	}
	c.API.Send(netstack.Broadcast, pkt)
}

// MergeReverse installs a reverse route learned from an RREQ copy unless
// the table holds a better valid one: fewer hops win, and among equal hop
// counts the longer Lifetime. Never accepting more hops keeps the reverse
// forwarding graph loop-free.
func (c *OnDemand) MergeReverse(nr Route) {
	if cur, ok := c.table.Get(nr.Dst); ok && cur.Valid &&
		(cur.Hops < nr.Hops || cur.Hops == nr.Hops && !(nr.Lifetime > cur.Lifetime)) {
		return
	}
	c.table.Upsert(nr)
}

// OnNeighborExpired implements netstack.Router: losing a neighbor breaks
// every route through it.
func (c *OnDemand) OnNeighborExpired(id netstack.NodeID) {
	c.broken = c.table.InvalidateVia(id, c.broken[:0])
	c.API.Metrics().RouteBreaks += len(c.broken)
}

// OnSendFailed implements netstack.Router.
func (c *OnDemand) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	SendFailed(c.API, pkt, to, c.OnNeighborExpired)
}

// SendFailed is what a failed unicast means to a table-driven router, a
// detected link break: forget the neighbor, let the router's own
// neighbor-loss handling (lost) break the routes through it, and drop the
// data packet that could not leave.
func SendFailed(api *netstack.API, pkt *netstack.Packet, to netstack.NodeID, lost func(netstack.NodeID)) {
	api.ForgetNeighbor(to)
	lost(to)
	api.Drop(pkt)
}

// reply is the route reply of the on-demand routers but AODV: the
// discovery it answers and the path metric the target selected on.
type reply struct {
	Origin, Target netstack.NodeID
	Metric         float64
}

// Reply answers origin's discovery of this node with a route reply of
// size bytes carrying metric, sent to via, the first hop back.
func (c *OnDemand) Reply(via, origin netstack.NodeID, size int, metric float64) {
	c.API.Send(via, NewPacket(c.API, netstack.KindRREP, origin, size,
		reply{Origin: origin, Target: c.API.Self(), Metric: metric}))
}

// HandleReply installs the forward route a route reply carries, built by
// route from this node's API, the target, the hop it came from, the hops
// it travelled and its metric. Away from the origin it relays the reply
// and reports false; at the origin it ends the discovery and reports the
// target and metric. It takes the packet.
func (c *OnDemand) HandleReply(pkt *netstack.Packet,
	route func(api *netstack.API, dst, via netstack.NodeID, hops int, metric float64) Route) (netstack.NodeID, float64, bool) {
	rep := pkt.Payload.(reply)
	c.table.Upsert(route(c.API, rep.Target, pkt.From, pkt.Hops, rep.Metric))
	if rep.Origin != c.API.Self() {
		c.Relay(pkt, rep.Origin)
		return 0, 0, false
	}
	c.API.Release(pkt)
	c.Answered(rep.Target)
	return rep.Target, rep.Metric, true
}

// LifetimeRoute is a table entry that expires when its predicted lifetime
// has run out, for the protocols that carry one (PBR, Taleb).
func LifetimeRoute(api *netstack.API, dst, via netstack.NodeID, hops int, lifetime float64) Route {
	return Route{
		Dst: dst, NextHop: via, Hops: hops,
		Expiry: api.Now() + CapLife(lifetime), Valid: true, Lifetime: lifetime,
	}
}

// CapLife bounds a predicted lifetime to what a route entry may be held
// for, keeping link.Forever representable as an expiry.
func CapLife(lifetime float64) float64 {
	const maxHold = 120
	if lifetime > maxHold {
		return maxHold
	}
	return lifetime
}
