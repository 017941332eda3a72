// Package niude implements the QoS routing algorithm of Niu et al. (DeReQ,
// survey Secs. IV-B and VII-B, marked NiuDe): route selection "considers
// not only the impact of the link duration but also the traffic density",
// so that "a selected route is not only reliable but also compliant with
// delay requirements in multimedia application".
//
// Discovery is AODV-shaped, but each RREQ accumulates two QoS quantities:
//
//   - path reliability: the product of per-link availability probabilities
//     P(link survives the delay requirement), from the Sec. VII link-
//     duration model over the beaconed kinematics ("the reliability is on
//     the basis of a probability function that predicts the future status
//     of a wireless link");
//   - expected path delay: per-hop transmission plus a contention penalty
//     growing with local density (the denser the relay's neighborhood, the
//     longer the MAC wait).
//
// The destination collects candidates for a window and answers the most
// reliable path whose expected delay meets the bound; the source
// proactively rebuilds before the predicted break ("if a link is going to
// break, the route will be rebuilt before the link breaks").
package niude

import (
	"math"

	"github.com/vanetlab/relroute/internal/linkstate"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// Option configures the router factory.
type Option func(*Router)

// WithDelayBound sets the QoS delay requirement in seconds a candidate
// path must meet (default 0.5).
func WithDelayBound(d float64) Option {
	return func(r *Router) { r.delayBound = d }
}

// WithReliabilityHorizon sets the survival time links are scored against
// in seconds (default 4): reliability = P(link lives ≥ horizon).
func WithReliabilityHorizon(h float64) Option {
	return func(r *Router) { r.horizon = h }
}

// WithSpeedSigma sets the σ of the relative-speed uncertainty (default 4).
func WithSpeedSigma(s float64) Option {
	return func(r *Router) { r.speedSigma = s }
}

// Router is a per-node NiuDe/DeReQ instance.
type Router struct {
	netstack.Base
	table   *routing.Table
	pending *routing.PendingQueue
	dup     *routing.DupCache
	reqID   uint64
	trying  map[netstack.NodeID]int
	collect map[routing.DupKey]*candidate

	delayBound float64
	horizon    float64
	speedSigma float64
	window     float64
}

type candidate struct {
	bestReliability float64
	bestDelay       float64
	bestFrom        netstack.NodeID
	hops            int
	armed           bool
}

// rreq accumulates the QoS path metrics.
type rreq struct {
	Origin      netstack.NodeID
	ReqID       uint64
	Target      netstack.NodeID
	Reliability float64 // product of per-link availability so far
	Delay       float64 // expected forwarding delay so far, seconds
}

// rrep returns the selection.
type rrep struct {
	Origin      netstack.NodeID
	Target      netstack.NodeID
	Reliability float64
	Hops        int
}

// New returns a NiuDe router factory.
func New(opts ...Option) netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{
			table:      routing.NewTable(),
			pending:    routing.NewPendingQueue(16, 10),
			dup:        routing.NewDupCache(15),
			trying:     make(map[netstack.NodeID]int),
			collect:    make(map[routing.DupKey]*candidate),
			delayBound: 0.5,
			horizon:    4,
			speedSigma: 4,
			window:     0.3,
		}
		for _, o := range opts {
			o(r)
		}
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "NiuDe" }

// linkAvailability returns P(link to the beaconed neighbor survives the
// reliability horizon) under the Sec. VII model, via the reliability
// plane's shared survival helper.
func (r *Router) linkAvailability(ls netstack.LinkState) float64 {
	obs := linkstate.Observer{Pos: r.API.Pos(), Vel: r.API.Vel(), Now: r.API.Now()}
	return linkstate.Survival(obs, ls, r.speedSigma, r.API.RangeEstimate(), 600, r.horizon)
}

// hopDelay estimates this relay's forwarding delay: base transmission plus
// a contention penalty growing with local density (the traffic-density
// input of the NiuDe model).
func (r *Router) hopDelay() float64 {
	const base = 2e-3 // airtime + processing
	n := float64(r.API.NeighborCount())
	return base * (1 + n/8)
}

// Originate implements netstack.Router.
func (r *Router) Originate(dst netstack.NodeID, size int) {
	pkt := &netstack.Packet{
		UID: r.API.NewUID(), Kind: netstack.KindData, Data: true, Proto: r.Name(),
		Src: r.API.Self(), Dst: dst, TTL: routing.DefaultTTL, Size: size,
		Created: r.API.Now(),
	}
	if dst == r.API.Self() {
		r.API.Deliver(pkt)
		return
	}
	if rt, ok := r.table.Lookup(dst, r.API.Now()); ok {
		r.API.Send(rt.NextHop, pkt)
		return
	}
	if ev := r.pending.Push(dst, pkt); ev != nil {
		r.API.Drop(ev)
	}
	r.startDiscovery(dst)
}

func (r *Router) startDiscovery(dst netstack.NodeID) {
	if _, inFlight := r.trying[dst]; inFlight {
		return
	}
	r.trying[dst] = 2
	r.sendRREQ(dst)
}

func (r *Router) sendRREQ(dst netstack.NodeID) {
	r.API.Metrics().RouteDiscoveries++
	r.reqID++
	pkt := &netstack.Packet{
		UID: r.API.NewUID(), Kind: netstack.KindRREQ, Proto: r.Name(),
		Src: r.API.Self(), Dst: netstack.Broadcast, TTL: routing.DefaultTTL,
		Size: 56, Created: r.API.Now(),
		Payload: rreq{Origin: r.API.Self(), ReqID: r.reqID, Target: dst, Reliability: 1},
	}
	r.dup.Seen(routing.DupKey{Origin: pkt.Src, Seq: r.reqID}, r.API.Now())
	r.API.Send(netstack.Broadcast, pkt)
	dstCopy := dst
	r.API.After(1.0, func() { r.deadline(dstCopy) })
}

func (r *Router) deadline(dst netstack.NodeID) {
	retries, inFlight := r.trying[dst]
	if !inFlight {
		return
	}
	if _, ok := r.table.Lookup(dst, r.API.Now()); ok {
		delete(r.trying, dst)
		return
	}
	if retries <= 0 {
		delete(r.trying, dst)
		fresh, expired := r.pending.PopAll(dst, r.API.Now())
		for _, p := range append(fresh, expired...) {
			r.API.Drop(p)
		}
		return
	}
	r.trying[dst] = retries - 1
	r.sendRREQ(dst)
}

// HandlePacket implements netstack.Router.
func (r *Router) HandlePacket(pkt *netstack.Packet) {
	switch pkt.Kind {
	case netstack.KindRREQ:
		r.handleRREQ(pkt)
	case netstack.KindRREP:
		r.handleRREP(pkt)
	case netstack.KindData:
		r.handleData(pkt)
	}
}

func (r *Router) handleRREQ(pkt *netstack.Packet) {
	req, ok := pkt.Payload.(rreq)
	if !ok || req.Origin == r.API.Self() {
		return
	}
	now := r.API.Now()
	// fold in the link just traversed
	avail := 0.0
	if ls, okLs := r.API.LinkState(pkt.From); okLs {
		avail = r.linkAvailability(ls)
	}
	reliability := req.Reliability * avail
	delay := req.Delay + r.hopDelay()
	// reverse route: keep the most reliable, loop-free by hop monotonicity
	r.mergeReverse(routing.Route{
		Dst: req.Origin, NextHop: pkt.From, Hops: pkt.Hops,
		Expiry: now + 6, Valid: true, Lifetime: reliability * 100,
	})
	if req.Target == r.API.Self() {
		key := routing.DupKey{Origin: req.Origin, Seq: req.ReqID}
		c, okC := r.collect[key]
		if !okC {
			c = &candidate{bestReliability: -1}
			r.collect[key] = c
		}
		// QoS admission: delay bound first, then reliability
		if delay <= r.delayBound && reliability > c.bestReliability {
			c.bestReliability = reliability
			c.bestDelay = delay
			c.bestFrom = pkt.From
			c.hops = pkt.Hops
		}
		if !c.armed {
			c.armed = true
			origin := req.Origin
			r.API.After(r.window, func() { r.answer(key, origin) })
		}
		return
	}
	if r.dup.Seen(routing.DupKey{Origin: req.Origin, Seq: req.ReqID}, now) {
		return
	}
	// relays with zero availability in would only poison the product
	if reliability <= 0 {
		return
	}
	cp := req
	cp.Reliability = reliability
	cp.Delay = delay
	pkt.Payload = cp
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	r.API.Send(netstack.Broadcast, pkt)
}

func (r *Router) answer(key routing.DupKey, origin netstack.NodeID) {
	c, ok := r.collect[key]
	if !ok {
		return
	}
	delete(r.collect, key)
	if c.bestReliability < 0 {
		return // nothing met the delay bound
	}
	r.table.Upsert(routing.Route{
		Dst: origin, NextHop: c.bestFrom, Hops: c.hops,
		Expiry: r.API.Now() + 6, Valid: true, Lifetime: c.bestReliability * 100,
	})
	pkt := &netstack.Packet{
		UID: r.API.NewUID(), Kind: netstack.KindRREP, Proto: r.Name(),
		Src: r.API.Self(), Dst: origin, TTL: routing.DefaultTTL, Size: 48,
		Created: r.API.Now(),
		Payload: rrep{Origin: origin, Target: r.API.Self(), Reliability: c.bestReliability},
	}
	r.API.Send(c.bestFrom, pkt)
}

func (r *Router) handleRREP(pkt *netstack.Packet) {
	rep, ok := pkt.Payload.(rrep)
	if !ok {
		return
	}
	now := r.API.Now()
	r.table.Upsert(routing.Route{
		Dst: rep.Target, NextHop: pkt.From, Hops: rep.Hops + pkt.Hops,
		Expiry: now + 6, Valid: true, Lifetime: rep.Reliability * 100,
	})
	if rep.Origin == r.API.Self() {
		delete(r.trying, rep.Target)
		r.API.Metrics().OnPathLifetime(r.horizon * math.Max(rep.Reliability, 0.01))
		r.flushPending(rep.Target)
		// proactive maintenance: rebuild before the reliability horizon
		// elapses ("the route will be rebuilt before the link breaks")
		target := rep.Target
		lead := math.Max(r.horizon-1, 0.5)
		r.API.After(lead, func() {
			if _, okRt := r.table.Lookup(target, r.API.Now()); okRt || r.pending.Waiting(target) {
				r.API.Metrics().RouteRepairs++
				r.startDiscovery(target)
			}
		})
		return
	}
	rt, okRt := r.table.Lookup(rep.Origin, now)
	if !okRt {
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	r.API.Send(rt.NextHop, pkt)
}

func (r *Router) handleData(pkt *netstack.Packet) {
	if pkt.Dst == r.API.Self() {
		r.API.Deliver(pkt)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		r.API.Drop(pkt)
		return
	}
	if rt, ok := r.table.Lookup(pkt.Dst, r.API.Now()); ok {
		r.API.Send(rt.NextHop, pkt)
		return
	}
	r.API.Drop(pkt)
}

// OnNeighborExpired implements netstack.Router.
func (r *Router) OnNeighborExpired(id netstack.NodeID) {
	broken := r.table.InvalidateVia(id)
	r.API.Metrics().RouteBreaks += len(broken)
}

// OnSendFailed implements netstack.Router.
func (r *Router) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	r.API.ForgetNeighbor(to)
	r.OnNeighborExpired(to)
	if pkt.Data {
		r.API.Drop(pkt)
	}
}

// mergeReverse keeps the more reliable reverse route among those not
// increasing the hop count (loop freedom via hop monotonicity).
func (r *Router) mergeReverse(nr routing.Route) {
	cur, ok := r.table.Get(nr.Dst)
	if ok && cur.Valid && !(nr.Hops < cur.Hops || (nr.Hops == cur.Hops && nr.Lifetime > cur.Lifetime)) {
		return
	}
	r.table.Upsert(nr)
}

func (r *Router) flushPending(dst netstack.NodeID) {
	fresh, expired := r.pending.PopAll(dst, r.API.Now())
	for _, p := range expired {
		r.API.Drop(p)
	}
	rt, ok := r.table.Lookup(dst, r.API.Now())
	if !ok {
		for _, p := range fresh {
			r.API.Drop(p)
		}
		return
	}
	for _, p := range fresh {
		r.API.Send(rt.NextHop, p)
	}
}

// Table exposes the route table for tests.
func (r *Router) Table() *routing.Table { return r.table }
