// Package routing holds the building blocks shared by every protocol
// implementation: the duplicate cache every flooder and discovery flood
// consults once per reception (dupcache.go: a last-key check in front of a
// flat open-addressed table), distance-vector route tables, pending
// data queues, sequence-number arithmetic, the on-demand discovery core the
// reactive protocols embed (ondemand.go), the carry-and-forward core the
// position-based ones embed (carry.go) and the flood core the flooders embed
// (flooder.go). The concrete protocols live
// in the subpackages (one per surveyed protocol family) and in
// internal/core for the paper's own ticket-probing protocol.
package routing

import (
	"sort"

	"github.com/vanetlab/relroute/internal/netstack"
)

// DefaultTTL is the hop budget given to flooded control packets and data;
// VANET diameters in the experiments stay well below it.
const DefaultTTL = 32

// NewData builds the data packet a router originates for dst: a fresh UID,
// the full hop budget, stamped with the node and the current time.
func NewData(api *netstack.API, proto string, dst netstack.NodeID, size int) *netstack.Packet {
	return &netstack.Packet{
		UID: api.NewUID(), Kind: netstack.KindData, Data: true, Proto: proto,
		Src: api.Self(), Dst: dst, TTL: DefaultTTL, Size: size,
		Created: api.Now(),
	}
}

// NeighborBuf sizes the stack array a per-packet loop reads the neighbor
// table into (var buf [NeighborBuf]netstack.Neighbor, then
// API.AppendNeighbors(buf[:0])): 25 neighbors is a 50 veh/km highway, and a
// denser table only costs that call a heap slice. A buffer kept in every
// router instead measured +10 % peak RSS on a 1,500-vehicle city world.
const NeighborBuf = 48

// SeqNewer implements the circular sequence-number comparison used by
// AODV/DSDV: a is fresher than b. Equal numbers are not newer.
func SeqNewer(a, b uint32) bool {
	return int32(a-b) > 0
}

// Route is one distance-vector route entry.
type Route struct {
	Dst      netstack.NodeID
	NextHop  netstack.NodeID
	Hops     int
	Seq      uint32
	Expiry   float64 // sim time after which the route is stale; 0 = none
	Valid    bool
	Lifetime float64 // predicted remaining path lifetime (mobility protocols)

	// deadAt is the sim time the route died (0 while alive); the lazy
	// sweep ages dead entries against it. Invalidate and the Lookup
	// expiry path stamp it exactly; a route killed by direct mutation of
	// the Get pointer is stamped by the first sweep that observes it
	// dead, so it always gets the full grace window.
	deadAt float64
}

// routeRetention is how long an invalidated or expired route entry is
// retained before the lazy sweep deletes it, in seconds. The retention
// mirrors AODV's DELETE_PERIOD: dead entries keep their sequence numbers
// visible to Get for a bounded grace window (loop freedom across repair
// races), then go away — without it, per-node tables grow for the whole
// run, worst under open-world churn where departed destinations would
// otherwise linger forever.
const routeRetention = 30.0

// Table is a per-node route table. Dead entries (invalidated or expired)
// are garbage-collected by a lazy sweep driven off the time-bearing
// accessors (Lookup, Destinations): once an entry has been dead for the
// retention period it is deleted, bounding table growth under churn.
type Table struct {
	routes map[netstack.NodeID]*Route
	// lastNow is the latest sim time observed through any accessor;
	// Invalidate (which takes no time argument) stamps death with it —
	// exact whenever the protocol consults the table at the same event
	// (they all do) and a safe under-estimate otherwise.
	lastNow float64
	sweepAt float64
}

// NewTable returns an empty route table.
func NewTable() *Table {
	return &Table{routes: make(map[netstack.NodeID]*Route)}
}

// observe advances the table's time bound and runs the lazy sweep at most
// once per retention period.
func (t *Table) observe(now float64) {
	if now > t.lastNow {
		t.lastNow = now
	}
	if now < t.sweepAt {
		return
	}
	t.sweepAt = now + routeRetention
	for dst, r := range t.routes {
		if r.Valid && (r.Expiry == 0 || now <= r.Expiry) {
			r.deadAt = 0 // alive (possibly resurrected by direct mutation)
			continue
		}
		// The grace window runs from when the route died, not from its
		// last table write. If death was never stamped (a protocol set
		// Valid = false through the Get pointer), stamp it now: a route
		// that expired on its own died at Expiry, anything else is first
		// observed dead here.
		if r.deadAt == 0 {
			if r.Valid {
				r.deadAt = r.Expiry
			} else {
				r.deadAt = now
			}
		}
		if now-r.deadAt > routeRetention {
			delete(t.routes, dst)
		}
	}
}

// Get returns the entry for dst, valid or not. Dead entries remain
// readable (sequence numbers, last hop counts) until the retention sweep
// collects them.
func (t *Table) Get(dst netstack.NodeID) (*Route, bool) {
	r, ok := t.routes[dst]
	return r, ok
}

// Lookup returns the entry only when it is valid and unexpired at now.
func (t *Table) Lookup(dst netstack.NodeID, now float64) (*Route, bool) {
	t.observe(now)
	r, ok := t.routes[dst]
	if !ok || !r.Valid {
		return nil, false
	}
	if r.Expiry > 0 && now > r.Expiry {
		r.Valid = false
		r.deadAt = r.Expiry
		return nil, false
	}
	return r, true
}

// Upsert inserts or replaces the entry for r.Dst and returns it.
func (t *Table) Upsert(r Route) *Route {
	cp := r
	cp.deadAt = 0
	if !cp.Valid {
		cp.deadAt = t.lastNow // inserted already-dead: grace starts now
	}
	t.routes[r.Dst] = &cp
	return &cp
}

// InvalidateVia invalidates every valid route whose next hop is via and
// returns the affected destinations (sorted, deterministic).
func (t *Table) InvalidateVia(via netstack.NodeID) []netstack.NodeID {
	var out []netstack.NodeID
	for dst, r := range t.routes {
		if r.Valid && r.NextHop == via {
			r.Valid = false
			r.deadAt = t.lastNow
			out = append(out, dst)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Destinations returns all destinations with valid routes (sorted).
func (t *Table) Destinations(now float64) []netstack.NodeID {
	t.observe(now)
	var out []netstack.NodeID
	for dst, r := range t.routes {
		if r.Valid && (r.Expiry == 0 || now <= r.Expiry) {
			out = append(out, dst)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of stored entries — valid routes plus dead ones
// still inside the retention window. Destinations lists the routable ones.
func (t *Table) Len() int { return len(t.routes) }

const (
	// pendingCap is how many packets a PendingQueue holds per destination.
	pendingCap = 16
	// pendingWait is how long, in seconds, a queued packet stays fresh.
	pendingWait = 10.0
)

// PendingQueue buffers data packets awaiting a route, per destination,
// dropping the oldest beyond pendingCap and expiring packets after
// pendingWait.
type PendingQueue struct {
	byDst map[netstack.NodeID][]*netstack.Packet
}

// NewPendingQueue returns an empty queue.
func NewPendingQueue() *PendingQueue {
	return &PendingQueue{byDst: make(map[netstack.NodeID][]*netstack.Packet)}
}

// Push buffers pkt for dst. When the per-destination cap is reached the
// oldest buffered packet is evicted and returned; the queue keeps no
// reference to it.
//
// Contract: the caller owns the evicted packet and must terminate its
// journey — Drop it (so the loss is counted) and, if the caller owns it
// exclusively, optionally Release it back to the pool. Ignoring the
// return value leaks the packet from the accounting: it was accepted from
// the application but silently vanishes from both the delivered and
// dropped columns.
func (q *PendingQueue) Push(dst netstack.NodeID, pkt *netstack.Packet) (evicted *netstack.Packet) {
	list := q.byDst[dst]
	if len(list) >= pendingCap {
		evicted = list[0]
		list = list[1:]
	}
	q.byDst[dst] = append(list, pkt)
	return evicted
}

// PopAll removes and returns every buffered packet for dst that has not
// exceeded pendingWait by now; expired ones are returned separately.
func (q *PendingQueue) PopAll(dst netstack.NodeID, now float64) (fresh, expired []*netstack.Packet) {
	list := q.byDst[dst]
	delete(q.byDst, dst)
	for _, p := range list {
		if now-p.Created > pendingWait {
			expired = append(expired, p)
		} else {
			fresh = append(fresh, p)
		}
	}
	return fresh, expired
}

// Waiting reports whether packets are buffered for dst.
func (q *PendingQueue) Waiting(dst netstack.NodeID) bool { return len(q.byDst[dst]) > 0 }

// Len returns the total number of buffered packets.
func (q *PendingQueue) Len() int {
	n := 0
	for _, l := range q.byDst {
		n += len(l)
	}
	return n
}
