package netstack

import (
	"math/rand"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/sim"
)

// Router is the interface every protocol implements. One instance is
// attached per node.
type Router interface {
	// Attach hands the router its per-node API. Called once before the
	// simulation starts.
	Attach(api *API)
	// HandlePacket processes a link-layer delivered packet (unicast to
	// this node or broadcast). Beacons are consumed by the stack and do
	// not reach HandlePacket.
	HandlePacket(pkt *Packet)
	// Originate injects application data for dst, which is never this
	// router's own node (AddFlow refuses such a flow). The router owns
	// queueing and discovery; undeliverable data is dropped by the
	// router.
	Originate(dst NodeID, size int)
	// OnNeighborExpired fires when a neighbor times out — the stack-level
	// link-break signal routers use for RERR/repair logic.
	OnNeighborExpired(id NodeID)
	// OnSendFailed fires at the sender when a unicast transmission of pkt
	// to the given next hop exhausted the MAC's ARQ budget — the 802.11
	// transmission-failure indication. Routers typically blacklist the
	// neighbor and re-route or report a broken link.
	OnSendFailed(pkt *Packet, to NodeID)
	// NeedsBeacons reports whether this protocol requires the HELLO
	// beaconing substrate. Stacks without any beacon consumer skip
	// beaconing, so protocols that advertise independence from
	// "neighboring awareness" aren't charged its overhead.
	NeedsBeacons() bool
}

// BeaconListener is optional: a router that also implements it is told of
// every beacon its node hears, at reception, with what the beacon itself
// carries. The stack looks for it once, when the node is added.
type BeaconListener interface {
	OnBeacon(from NodeID, kind NodeKind)
}

// RouterFactory builds one router per node.
type RouterFactory func() Router

// Base provides default no-op implementations of the optional Router
// hooks. Protocols embed it and override what they need.
type Base struct {
	API *API
}

// Attach stores the API.
func (b *Base) Attach(api *API) { b.API = api }

// OnNeighborExpired is a no-op by default.
func (b *Base) OnNeighborExpired(NodeID) {}

// OnSendFailed is a no-op by default.
func (b *Base) OnSendFailed(*Packet, NodeID) {}

// NeedsBeacons defaults to true; pure flooding protocols override it.
func (b *Base) NeedsBeacons() bool { return true }

// API is the per-node interface the stack exposes to its router.
type API struct {
	world *World
	node  *node
}

// Self returns this node's ID.
func (a *API) Self() NodeID { return a.node.id }

// Kind returns this node's kind.
func (a *API) Kind() NodeKind { return a.node.kind }

// Now returns the simulation time.
func (a *API) Now() float64 { return a.world.eng.Now() }

// Pos returns this node's current position.
func (a *API) Pos() geom.Vec2 { return a.node.pos }

// Vel returns this node's current velocity.
func (a *API) Vel() geom.Vec2 { return a.node.vel }

// AppendNeighbors appends a snapshot of the live neighbor table, in
// ascending ID order (from the table's layout), to dst: observed fields
// only; use AppendLinkStates for the reliability plane's predictions. It
// is allocation-free into a buffer the caller owns (a stack array of
// routing.NeighborBuf entries in the routers).
func (a *API) AppendNeighbors(dst []Neighbor) []Neighbor { return a.node.mon.AppendSnapshot(dst) }

// NeighborCount returns the number of live neighbors.
func (a *API) NeighborCount() int { return a.node.mon.Len() }

// HasNeighbor reports whether id is currently a live neighbor.
func (a *API) HasNeighbor(id NodeID) bool { return a.node.mon.Has(id) }

// ForgetNeighbor removes id from the neighbor table immediately (without
// firing OnNeighborExpired — the caller already knows). Routers blacklist
// stale neighbors this way after a transmission failure. The reliability
// plane's evidence for the link is discarded with the entry.
func (a *API) ForgetNeighbor(id NodeID) { a.node.mon.Remove(id) }

// LinkState returns the reliability plane's estimate for the link to id:
// the neighbor entry with Age, predicted residual Lifetime, and
// ReceiptProb filled by the world's configured estimator (Config.Estimator,
// default "composite"). The kinematic lifetime behind it is memoized per
// mobility epoch, so repeated queries within one routing decision are
// cheap and allocation-free.
func (a *API) LinkState(id NodeID) (LinkState, bool) {
	return a.node.mon.State(id, a.world.observer(a.node))
}

// AppendLinkStates appends the estimate for every live neighbor to dst, in
// the same order as AppendNeighbors and with predictions filled,
// allocation-free like AppendNeighbors.
func (a *API) AppendLinkStates(dst []LinkState) []LinkState {
	return a.node.mon.AppendStates(dst, a.world.observer(a.node))
}

// Send transmits pkt on the link layer. to is a node ID or Broadcast. The
// stack fills From/To, charges metrics by packet type, and hands the frame
// to the MAC. It takes the packet: a router owns the packet HandlePacket,
// OnSendFailed or NewPacket gives it until it passes it to Send, Drop or
// Release, and touches it no more after that, not in a retry buffer and
// not in a timer closure. The stack recycles the packet through the free
// list once the MAC reports the frame done — after every receiver has been
// handed its own copy — or at once when this node cannot transmit, and
// hands back its payload then if that is a Recycler. A router that needs
// the packet again keeps a copy of its own (NewPacket, then *cp = *pkt).
func (a *API) Send(to NodeID, pkt *Packet) {
	a.world.sendFrame(a.node, to, pkt)
}

// SendAfter is Send, d seconds from now: the stack holds the packet until
// then, in a slot of its own, and sends it through one handler event, so a
// delayed send allocates nothing. It takes the packet as Send does, and a
// node that cannot transmit by then has it recycled. The send is not
// cancellable.
func (a *API) SendAfter(d float64, to NodeID, pkt *Packet) {
	a.world.sendAfter(d, a.node, to, pkt)
}

// After schedules fn after d seconds; the returned timer can be cancelled.
func (a *API) After(d float64, fn func()) sim.TimerID { return a.world.eng.After(d, fn) }

// Periodic is a job for API.Every. A router passes itself, or the core it
// embeds, so arming the job allocates nothing.
type Periodic interface {
	Tick()
}

// Every runs job.Tick first seconds from now and then every period
// seconds for the rest of the run: sim.Engine.Ticker without jitter, which
// reschedules at now + period once Tick returns. There is no stop handle,
// because no periodic router job (a carry sweep, a table dump, an RSU
// buffer flush) ever ends early.
func (a *API) Every(first, period float64, job Periodic) {
	w := a.world
	w.every = append(w.every, job)
	w.eng.Ticker(w.eng.Now()+first, period, 0, nil, w.everyH, int32(len(w.every)-1))
}

// Cancel cancels a pending timer.
func (a *API) Cancel(id sim.TimerID) { a.world.eng.Cancel(id) }

// Rand returns this node's deterministic random stream (materializing it
// on first use; see node.random).
func (a *API) Rand() *rand.Rand { return a.node.random() }

// Metrics returns the run-wide collector.
func (a *API) Metrics() *metrics.Collector { return a.world.col }

// NewUID issues a fresh packet UID.
func (a *API) NewUID() uint64 {
	a.world.uid++
	return a.world.uid
}

// Deliver reports that a data packet reached its destination. The stack
// records delay and hop metrics; duplicate UIDs are counted as duplicates.
// It reports whether this was the first delivery.
func (a *API) Deliver(pkt *Packet) bool {
	first := a.world.col.OnDataDelivered(pkt.UID, a.Now()-pkt.Created, pkt.Hops)
	if first && a.world.onFirstDelivery != nil {
		a.world.onFirstDelivery(pkt.Created)
	}
	return first
}

// Drop gives a packet up for good (no route, TTL, queue overflow) and
// takes it, the way Send and Release do: it counts the drop if the packet
// is data, so a router may call it on any packet it gives up, and hands
// the packet back to the stack's free list. Only the packet's owner may
// call it, and it must hold no other reference to the packet and touch it
// no more.
func (a *API) Drop(pkt *Packet) {
	if pkt.Kind == KindData {
		a.world.col.DataDropped++
	}
	a.world.putPacket(pkt)
}

// NewPacket takes a zeroed packet from the stack's free list (or allocates
// one). The caller owns it until it passes it to Send, Drop or Release;
// routing.NewPacket builds every originated packet on it, and a
// router that sends a copy of a packet fills one (*cp = *pkt).
func (a *API) NewPacket() *Packet { return a.world.getPacket() }

// Release hands a packet back to the stack's free list. Only the packet's
// owner may call it, and only when the packet's journey provably ends at
// this node (duplicate discard, delivery at the destination; a packet
// given up goes to Drop instead). The caller must hold no other
// reference: in particular a packet that was passed to Send, stored in a
// retry buffer, or shared with a timer callback must NOT be released.
// Every packet a router is handed or makes ends in Send, Drop or Release,
// or sits in a named holder until it does: a MAC queue, a discovery
// queue, a carry buffer or retry custody. The engine is single-threaded,
// so the free list needs no synchronisation.
func (a *API) Release(pkt *Packet) { a.world.putPacket(pkt) }

// RangeEstimate returns the channel's 50% reception range: the r every
// analytic lifetime computation (Eqn 4) uses.
func (a *API) RangeEstimate() float64 { return a.world.ch.MeanRange() }

// LookupPosition implements an idealised location service: the last
// position/velocity of dst sampled at the configured staleness. The survey
// assumes "vehicles knowing the geographic position of neighbors" and a
// GPS/digital-map substrate for geographic and probability protocols; the
// oracle with staleness models exactly that information with bounded
// freshness.
func (a *API) LookupPosition(dst NodeID) (pos, vel geom.Vec2, ok bool) {
	return a.world.lookupPosition(dst)
}
