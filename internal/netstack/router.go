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
	// Name returns the protocol name (stable, used in metrics and the
	// taxonomy registry).
	Name() string
	// Attach hands the router its per-node API. Called once before the
	// simulation starts.
	Attach(api *API)
	// HandlePacket processes a link-layer delivered packet (unicast to
	// this node or broadcast). Beacons are consumed by the stack and do
	// not reach HandlePacket.
	HandlePacket(pkt *Packet)
	// Originate injects application data for dst. The router owns
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

// Neighbors returns a snapshot of the live neighbor table in ascending ID
// order (from the table's layout), in a fresh slice the caller may keep
// (observed fields only; use LinkStates for the reliability plane's
// predictions).
func (a *API) Neighbors() []Neighbor { return a.node.mon.Snapshot() }

// AppendNeighbors appends what Neighbors returns to dst: the allocation-free
// read for per-packet loops, into a buffer the caller owns (a stack array
// of routing.NeighborBuf entries in the routers that use it).
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

// LinkStates returns the estimate for every live neighbor in ascending ID
// order (from the table's layout) — the same iteration order as Neighbors,
// with predictions filled — in a fresh slice the caller may keep.
func (a *API) LinkStates() []LinkState {
	return a.node.mon.States(a.world.observer(a.node))
}

// AppendLinkStates appends what LinkStates returns to dst, allocation-free
// like AppendNeighbors.
func (a *API) AppendLinkStates(dst []LinkState) []LinkState {
	return a.node.mon.AppendStates(dst, a.world.observer(a.node))
}

// Send transmits pkt on the link layer. to is a node ID or Broadcast. The
// stack fills From/To, charges metrics by packet type, and hands the frame
// to the MAC.
func (a *API) Send(to NodeID, pkt *Packet) {
	a.world.sendFrame(a.node, to, pkt, false)
}

// SendFinal is Send for a packet the router keeps no reference to: not in
// a retry or carry buffer, not in a timer closure, not already queued by an
// earlier Send. The stack takes ownership and recycles the packet through
// the free list once the MAC reports the frame done — after every receiver
// has been handed its own copy — or at once when this node cannot transmit.
// The caller must not touch pkt after the call. A flooder's rebroadcast of
// the copy HandlePacket gave it is the intended use.
func (a *API) SendFinal(to NodeID, pkt *Packet) {
	a.world.sendFrame(a.node, to, pkt, true)
}

// After schedules fn after d seconds; the returned timer can be cancelled.
func (a *API) After(d float64, fn func()) sim.TimerID { return a.world.eng.After(d, fn) }

// Every runs fn first seconds from now and then every period seconds for
// the rest of the run: sim.Engine.Ticker without jitter, which reschedules
// at now + period once fn returns. There is no stop handle, because no
// periodic router job (a carry sweep, a table dump, an RSU buffer flush)
// ever ends early.
func (a *API) Every(first, period float64, fn func()) {
	a.world.eng.Ticker(a.world.eng.Now()+first, period, 0, nil, fn)
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

// Drop reports that a data packet was abandoned (no route, TTL, queue
// overflow).
func (a *API) Drop(pkt *Packet) {
	if pkt.Data {
		a.world.col.DataDropped++
	}
}

// Release hands a packet back to the stack's free list. Only the packet's
// owner may call it, and only when the packet's journey provably ends at
// this node (duplicate discard, delivery at the destination, terminal
// drop). The caller must hold no other reference: in particular a packet
// that was passed to Send or SendFinal, stored in a retry buffer, or shared
// with a timer callback must NOT be released. Releasing is optional — packets
// that are never released are simply garbage collected. The engine is
// single-threaded, so the free list needs no synchronisation.
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
