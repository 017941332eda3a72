package routing

import "github.com/vanetlab/relroute/internal/netstack"

// Discovery is the source half every on-demand protocol shares, embedded
// the way netstack.Base is: data for a destination without a route waits
// in a bounded queue while a request goes out, the request is repeated
// twice if nothing answers within the timeout, and after the third silence
// the queue is dropped. What "has a route" means, how data leaves on one,
// and what a request looks like are the protocol's, bound once in Init: a
// route table (OnDemand), a path cache (DSR), a probed source route (the
// ticket router).
type Discovery struct {
	netstack.Base
	pending *PendingQueue
	trying  map[netstack.NodeID]int // dst → requests left while a discovery is in flight
	reqID   uint64

	name    string
	timeout float64
	routed  func(dst netstack.NodeID) bool
	forward func(pkt *netstack.Packet)
	request func(dst netstack.NodeID, reqID uint64) bool
}

// Init binds the protocol half. name labels the packets this router
// builds; routed reports whether data for dst can leave now; forward sends
// a packet whose destination routed just accepted; request sends one
// discovery round for dst under the given request number and reports false
// when there was nobody to ask, which ends the discovery at once. A silent
// round is repeated timeout seconds later.
func (d *Discovery) Init(name string, timeout float64, routed func(netstack.NodeID) bool,
	forward func(*netstack.Packet), request func(netstack.NodeID, uint64) bool) {
	d.pending = NewPendingQueue()
	d.trying = make(map[netstack.NodeID]int)
	d.name, d.timeout = name, timeout
	d.routed, d.forward, d.request = routed, forward, request
}

// Control builds a control packet of this protocol from this node.
func (d *Discovery) Control(kind string, dst netstack.NodeID, size int, payload any) *netstack.Packet {
	return &netstack.Packet{
		UID: d.API.NewUID(), Kind: kind, Proto: d.name,
		Src: d.API.Self(), Dst: dst, TTL: DefaultTTL, Size: size,
		Created: d.API.Now(), Payload: payload,
	}
}

// Originate implements netstack.Router: send on the route there is, or
// queue and discover.
func (d *Discovery) Originate(dst netstack.NodeID, size int) {
	pkt := NewData(d.API, d.name, dst, size)
	if dst == d.API.Self() {
		d.API.Deliver(pkt)
		return
	}
	if d.routed(dst) {
		d.forward(pkt)
		return
	}
	d.Queue(pkt)
}

// Queue parks a data packet until its destination is routed and starts a
// discovery for it; the packet a full queue evicts is dropped.
func (d *Discovery) Queue(pkt *netstack.Packet) {
	if ev := d.pending.Push(pkt.Dst, pkt); ev != nil {
		d.API.Drop(ev)
	}
	d.Start(pkt.Dst)
}

// Waiting reports whether data is queued for dst.
func (d *Discovery) Waiting(dst netstack.NodeID) bool { return d.pending.Waiting(dst) }

// Start begins a discovery for dst unless one is in flight.
func (d *Discovery) Start(dst netstack.NodeID) {
	if _, inFlight := d.trying[dst]; inFlight {
		return
	}
	d.trying[dst] = 2
	d.ask(dst)
}

func (d *Discovery) ask(dst netstack.NodeID) {
	d.API.Metrics().RouteDiscoveries++
	d.reqID++
	if !d.request(dst, d.reqID) {
		d.giveUp(dst)
		return
	}
	d.API.After(d.timeout, func() { d.deadline(dst) })
}

func (d *Discovery) deadline(dst netstack.NodeID) {
	retries, inFlight := d.trying[dst]
	if !inFlight {
		return // answered
	}
	if d.routed(dst) {
		delete(d.trying, dst)
		return
	}
	if retries <= 0 {
		d.giveUp(dst)
		return
	}
	d.trying[dst] = retries - 1
	d.ask(dst)
}

func (d *Discovery) giveUp(dst netstack.NodeID) {
	delete(d.trying, dst)
	fresh, expired := d.pending.PopAll(dst, d.API.Now())
	for _, p := range append(fresh, expired...) {
		d.API.Drop(p)
	}
}

// Answered ends the discovery for dst and releases its queue onto the
// route the answer installed.
func (d *Discovery) Answered(dst netstack.NodeID) {
	delete(d.trying, dst)
	fresh, expired := d.pending.PopAll(dst, d.API.Now())
	for _, p := range expired {
		d.API.Drop(p)
	}
	routed := d.routed(dst)
	for _, p := range fresh {
		if routed {
			d.forward(p)
		} else {
			d.API.Drop(p)
		}
	}
}

// OnDemand is the AODV-shaped core of the table-driven on-demand
// protocols (AODV, PBR, Taleb, Abedi, NiuDe): a Discovery whose route is a
// next-hop table entry and whose request is a flooded RREQ. It owns the
// route table and the duplicate cache and implements, once, flooding the
// request, hop-by-hop data forwarding, relaying replies along the reverse
// route, the reverse-route merge rule and link-break handling. A protocol
// embeds it and keeps what the survey says distinguishes it: its payloads,
// the link metric it folds into the RREQ at each hop, how the destination
// chooses, and any relay delay.
type OnDemand struct {
	Discovery
	table *Table
	dup   *DupCache
	rreq  func(dst netstack.NodeID, reqID uint64) *netstack.Packet
}

// Init binds the protocol's name, its discovery timeout and rreq, which
// builds (Control does most of it) the RREQ to flood for dst.
func (c *OnDemand) Init(name string, timeout float64, rreq func(netstack.NodeID, uint64) *netstack.Packet) {
	c.table, c.dup, c.rreq = NewTable(), NewDupCache(15), rreq
	c.Discovery.Init(name, timeout, c.routed, c.forward, c.flood)
}

// Table exposes the route table.
func (c *OnDemand) Table() *Table { return c.table }

func (c *OnDemand) routed(dst netstack.NodeID) bool {
	_, ok := c.table.Lookup(dst, c.API.Now())
	return ok
}

func (c *OnDemand) forward(pkt *netstack.Packet) {
	rt, _ := c.table.Get(pkt.Dst)
	c.API.Send(rt.NextHop, pkt)
}

func (c *OnDemand) flood(dst netstack.NodeID, reqID uint64) bool {
	pkt := c.rreq(dst, reqID)
	c.Duplicate(pkt.Src, reqID)
	c.API.Send(netstack.Broadcast, pkt)
	return true
}

// Duplicate records the flooded request (origin, reqID) and reports whether
// this node had already seen it.
func (c *OnDemand) Duplicate(origin netstack.NodeID, reqID uint64) bool {
	return c.dup.Seen(DupKey{Origin: origin, Seq: reqID}, c.API.Now())
}

// HandleData forwards a data packet one hop along the table, or delivers
// it here.
func (c *OnDemand) HandleData(pkt *netstack.Packet) { ForwardData(c.API, c.table, pkt) }

// ForwardData is hop-by-hop table forwarding, for every router that keeps a
// Table (OnDemand's, DSDV): deliver a data packet addressed to this node,
// otherwise spend one TTL and send it to the next hop t holds for its
// destination; out of hops or without a route it is dropped.
func ForwardData(api *netstack.API, t *Table, pkt *netstack.Packet) {
	if pkt.Dst == api.Self() {
		api.Deliver(pkt)
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
// table; without a route, or out of TTL, it dies here.
func (c *OnDemand) Relay(pkt *netstack.Packet, dst netstack.NodeID) {
	rt, ok := c.table.Lookup(dst, c.API.Now())
	if !ok {
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	c.API.Send(rt.NextHop, pkt)
}

// MergeReverse installs a reverse route learned from an RREQ copy unless
// the table holds a better one: fewer hops win, and among equal hop counts
// the longer Lifetime. Never accepting more hops keeps the reverse
// forwarding graph loop-free.
func (c *OnDemand) MergeReverse(nr Route) {
	cur, ok := c.table.Get(nr.Dst)
	if ok && cur.Valid && !(nr.Hops < cur.Hops || (nr.Hops == cur.Hops && nr.Lifetime > cur.Lifetime)) {
		return
	}
	c.table.Upsert(nr)
}

// OnNeighborExpired implements netstack.Router: losing a neighbor breaks
// every route through it.
func (c *OnDemand) OnNeighborExpired(id netstack.NodeID) {
	c.API.Metrics().RouteBreaks += len(c.table.InvalidateVia(id))
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
	if pkt.Data {
		api.Drop(pkt)
	}
}

// LifetimeRoute is a table entry that expires when its predicted lifetime
// has run out, for the protocols that carry one (PBR, Taleb).
func (c *OnDemand) LifetimeRoute(dst, via netstack.NodeID, hops int, lifetime float64) Route {
	return Route{
		Dst: dst, NextHop: via, Hops: hops,
		Expiry: c.API.Now() + CapLife(lifetime), Valid: true, Lifetime: lifetime,
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

// Candidate is a path offered to a table-driven destination: the previous
// hop the RREQ copy arrived through, its hop count, and the path metric
// the protocol carries back (a lifetime, a reliability).
type Candidate struct {
	From   netstack.NodeID
	Hops   int
	Metric float64
}

// Selection is the destination side of a discovery that compares paths:
// the first request copy of a discovery opens a window, every copy that
// arrives inside it is scored, and when it closes the best is answered.
type Selection[T any] struct {
	window float64
	answer func(origin netstack.NodeID, best T)
	open   map[DupKey]*bid[T]
}

type bid[T any] struct {
	score float64
	val   T
}

// NewSelection returns a Selection that collects for window seconds and
// hands the winner to answer.
func NewSelection[T any](window float64, answer func(origin netstack.NodeID, best T)) Selection[T] {
	return Selection[T]{window: window, answer: answer, open: make(map[DupKey]*bid[T])}
}

// Offer enters val, scored score, for the discovery key (origin, request).
// A negative score opens the window but can never win it; a window that
// closes on nothing else answers nobody.
func (s *Selection[T]) Offer(api *netstack.API, key DupKey, score float64, val T) {
	b, ok := s.open[key]
	if !ok {
		b = &bid[T]{score: -1}
		s.open[key] = b
		api.After(s.window, func() {
			delete(s.open, key)
			if b.score >= 0 {
				s.answer(key.Origin, b.val)
			}
		})
	}
	if score > b.score {
		b.score, b.val = score, val
	}
}
