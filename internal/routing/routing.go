// Package routing holds the building blocks shared by every protocol
// implementation: the duplicate cache every flooder and discovery flood
// consults once per reception (dupcache.go: a last-key check in front of
// one slice of live keys sorted by packed key), distance-vector route
// tables, pending data queues, sequence-number arithmetic, the on-demand
// discovery core the reactive protocols embed (ondemand.go, and
// selective.go for the ones whose destination compares paths), the
// carry-and-forward core the position-based ones embed (carry.go) and the
// flood core the flooders embed (flooder.go). The concrete protocols live
// in the subpackages (one per surveyed protocol family) and in
// internal/core for the paper's own ticket-probing protocol.
package routing

import (
	"slices"

	"github.com/vanetlab/relroute/internal/netstack"
)

// DefaultTTL is the hop budget given to flooded control packets and data;
// VANET diameters in the experiments stay well below it.
const DefaultTTL = 32

// NewPacket builds a packet of the given kind a router originates for dst,
// on a packet from the stack's pool: a fresh UID, the full hop budget,
// stamped with the node and the current time.
func NewPacket(api *netstack.API, kind netstack.Kind, dst netstack.NodeID, size int, payload any) *netstack.Packet {
	pkt := api.NewPacket()
	*pkt = netstack.Packet{
		UID: api.NewUID(), Kind: kind,
		Src: api.Self(), Dst: dst, TTL: DefaultTTL, Size: size,
		Created: api.Now(), Payload: payload,
	}
	return pkt
}

// NewData builds the data packet a router originates for dst.
func NewData(api *netstack.API, dst netstack.NodeID, size int) *netstack.Packet {
	return NewPacket(api, netstack.KindData, dst, size, nil)
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

// Route is one distance-vector route entry, 48 bytes.
type Route struct {
	Dst      netstack.NodeID
	NextHop  netstack.NodeID
	Hops     int
	Seq      uint32
	Valid    bool
	Expiry   float64 // sim time after which the route is stale; 0 = none
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

// Table is a per-node route table; the zero table is empty. Dead entries
// (invalidated or expired) are garbage-collected by a lazy sweep driven off
// the time-bearing accessors (Lookup, AppendDestinations): once an entry has
// been dead for the retention period it is deleted, bounding table growth
// under churn. New entries are carved from chunks of half as many entries
// as the table then holds, 4 to 32, and never move or are reused: a *Route
// that Get or Lookup handed out stays valid while its holder keeps it.
type Table struct {
	routes map[netstack.NodeID]*Route // made at the first Upsert
	free   []Route                    // the last chunk's entries not yet carved
	// lastNow is the latest sim time observed through any accessor;
	// Invalidate (which takes no time argument) stamps death with it —
	// exact whenever the protocol consults the table at the same event
	// (they all do) and a safe under-estimate otherwise.
	lastNow float64
	sweepAt float64
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

// Upsert inserts or replaces the entry for r.Dst and returns it. A
// replacement overwrites the existing entry in place, so the pointer Get
// and Lookup returned for r.Dst now reads r; only a new destination
// carves an entry.
func (t *Table) Upsert(r Route) *Route {
	r.deadAt = 0
	if !r.Valid {
		r.deadAt = t.lastNow // inserted already-dead: grace starts now
	}
	cur, ok := t.routes[r.Dst]
	if !ok {
		if len(t.free) == 0 {
			if t.routes == nil {
				t.routes = make(map[netstack.NodeID]*Route)
			}
			t.free = make([]Route, min(max(len(t.routes)/2, 4), 32))
		}
		cur, t.free = &t.free[0], t.free[1:]
		t.routes[r.Dst] = cur
	}
	*cur = r
	return cur
}

// InvalidateVia invalidates every valid route whose next hop is via and
// appends the affected destinations to out, sorted (deterministic). Only
// the appended part is sorted; a caller that reads just the count passes a
// scratch slice it keeps, a caller that hands the result on passes nil.
func (t *Table) InvalidateVia(via netstack.NodeID, out []netstack.NodeID) []netstack.NodeID {
	n := len(out)
	for dst, r := range t.routes {
		if r.Valid && r.NextHop == via {
			r.Valid = false
			r.deadAt = t.lastNow
			out = append(out, dst)
		}
	}
	slices.Sort(out[n:])
	return out
}

// AppendDestinations appends every destination with a valid route at now
// to out and returns it; only the appended part is sorted.
func (t *Table) AppendDestinations(out []netstack.NodeID, now float64) []netstack.NodeID {
	t.observe(now)
	n := len(out)
	for dst, r := range t.routes {
		if r.Valid && (r.Expiry == 0 || now <= r.Expiry) {
			out = append(out, dst)
		}
	}
	slices.Sort(out[n:])
	return out
}
