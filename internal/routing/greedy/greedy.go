// Package greedy implements the survey's geographic greedy forwarding
// (Gong et al. / Lochert et al., Sec. VI-B): each node knows its own
// position (GPS) and its neighbors' positions (beacons); data is forwarded
// to the neighbor that makes the most progress toward the destination.
// The direction of vehicle movement is taken into account — among
// near-best candidates the one moving with the flow is preferred, which
// "helps to select long-lived links". At a local maximum (no neighbor
// closer than self) the packet is carried until the topology opens up —
// the store-carry-forward escape VANET greedy variants use instead of
// planar perimeter mode, because vehicles move along roads.
package greedy

import (
	"math"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/sim"
)

// Option configures the router factory.
type Option func(*Router)

// WithCarryTimeout sets how long a packet may be carried waiting for
// progress before being dropped (default 8 s).
func WithCarryTimeout(d float64) Option {
	return func(r *Router) { r.carryTimeout = d }
}

// WithDirectionBias enables/disables the direction-aware tie-break
// (default on); the ablation benches toggle it.
func WithDirectionBias(on bool) Option {
	return func(r *Router) { r.directionBias = on }
}

// Router is a per-node greedy geographic router.
type Router struct {
	netstack.Base
	carried       []*carriedPacket
	carryTimeout  float64
	directionBias bool
	sweep         sim.TimerID
	started       bool
}

type carriedPacket struct {
	pkt   *netstack.Packet
	since float64
}

// New returns a greedy router factory.
func New(opts ...Option) netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{carryTimeout: 8, directionBias: true}
		for _, o := range opts {
			o(r)
		}
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "Greedy" }

// Attach implements netstack.Router and starts the carry-buffer sweep.
func (r *Router) Attach(api *netstack.API) {
	r.Base.Attach(api)
	if r.started {
		return
	}
	r.started = true
	var tickFn func()
	tickFn = func() {
		r.retryCarried()
		r.API.After(0.5, tickFn)
	}
	api.After(0.5+api.Rand().Float64()*0.1, tickFn)
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
	r.route(pkt)
}

// HandlePacket implements netstack.Router.
func (r *Router) HandlePacket(pkt *netstack.Packet) {
	if pkt.Kind != netstack.KindData {
		return
	}
	if pkt.Dst == r.API.Self() {
		r.API.Deliver(pkt)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		r.API.Drop(pkt)
		return
	}
	r.route(pkt)
}

// route forwards greedily or buffers the packet for carry-and-forward.
func (r *Router) route(pkt *netstack.Packet) {
	if r.API.HasNeighbor(pkt.Dst) {
		r.API.Send(pkt.Dst, pkt)
		return
	}
	dstPos, dstVel, ok := r.API.LookupPosition(pkt.Dst)
	if !ok {
		r.API.Drop(pkt)
		return
	}
	_ = dstVel
	next, found := r.bestNextHop(dstPos)
	if found {
		r.API.Send(next, pkt)
		return
	}
	// local maximum: store, carry, forward later
	r.carried = append(r.carried, &carriedPacket{pkt: pkt, since: r.API.Now()})
}

// bestNextHop picks the neighbor with maximum progress toward dst,
// breaking near-ties (within 10% progress) toward same-direction
// neighbors.
func (r *Router) bestNextHop(dstPos geom.Vec2) (netstack.NodeID, bool) {
	self := r.API.Pos()
	myDist := self.Dist(dstPos)
	var best netstack.NodeID
	bestDist := myDist // must strictly improve
	found := false
	var buf [routing.NeighborBuf]netstack.Neighbor
	nbs := r.API.AppendNeighbors(buf[:0])
	for i := range nbs {
		nb := &nbs[i]
		d := nb.Pos.Dist(dstPos)
		if d >= bestDist {
			continue
		}
		best = nb.ID
		bestDist = d
		found = true
	}
	if !found || !r.directionBias {
		return best, found
	}
	// direction-aware refinement: among candidates within 10% of the best
	// progress, prefer one moving toward the destination.
	threshold := bestDist + 0.1*(myDist-bestDist)
	bestScore := -math.MaxFloat64
	refined := best
	for i := range nbs {
		nb := &nbs[i]
		d := nb.Pos.Dist(dstPos)
		if d >= threshold || d >= myDist {
			continue
		}
		toward := dstPos.Sub(nb.Pos).Unit()
		score := nb.Vel.Dot(toward) // m/s of closing speed
		if score > bestScore {
			bestScore = score
			refined = nb.ID
		}
	}
	return refined, true
}

// OnSendFailed implements netstack.Router: blacklist the stale neighbor
// and re-route the packet — the GPSR-style reaction to a failed unicast.
func (r *Router) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	r.API.ForgetNeighbor(to)
	if pkt.Kind != netstack.KindData {
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		r.API.Drop(pkt)
		return
	}
	r.route(pkt)
}

// retryCarried re-attempts forwarding for buffered packets and expires old
// ones.
func (r *Router) retryCarried() {
	if len(r.carried) == 0 {
		return
	}
	now := r.API.Now()
	keep := r.carried[:0]
	for _, c := range r.carried {
		if now-c.since > r.carryTimeout {
			r.API.Drop(c.pkt)
			continue
		}
		if r.API.HasNeighbor(c.pkt.Dst) {
			r.API.Send(c.pkt.Dst, c.pkt)
			continue
		}
		dstPos, _, ok := r.API.LookupPosition(c.pkt.Dst)
		if !ok {
			r.API.Drop(c.pkt)
			continue
		}
		if next, found := r.bestNextHop(dstPos); found {
			r.API.Send(next, c.pkt)
			continue
		}
		keep = append(keep, c)
	}
	r.carried = keep
}

// Carried exposes the carry-buffer length for tests.
func (r *Router) Carried() int { return len(r.carried) }
