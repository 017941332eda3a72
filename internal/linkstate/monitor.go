package linkstate

import (
	"math"
	"slices"

	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/link"
)

// rssiAlpha is the EWMA weight of a fresh beacon RSSI sample: 0.3 smooths
// shadowing while still tracking mobility (the constant the pre-plane
// neighbor table used — part of the golden determinism contract).
const rssiAlpha = 0.3

// trendAlpha smooths the per-beacon RSSI slope into RSSITrend.
const trendAlpha = 0.3

// feedbackAlpha is the EWMA weight of one observed link outcome
// (reception success or ARQ failure) in FeedbackProb.
const feedbackAlpha = 0.25

// Monitor tracks the currently live links of one node and estimates their
// quality. It subsumes the old netstack neighbor table: entries are
// created and refreshed by HELLO beacons, expire ttl seconds after the
// last beacon, and additionally accumulate MAC feedback (receptions and
// ARQ failures). Derived predictions are computed on read by the
// configured Estimator, with the kinematic Eqn (4) lifetime memoized per
// (mobility epoch, beacon count) so repeated routing decisions within one
// epoch cost no recomputation and no allocations.
//
// Layout: keys[:n] is a small array of (ID, slot) pairs kept in ascending
// ID order and bisected without hashing; slots holds the entries
// themselves, which stay where they are — an insert or expiry shifts 8
// bytes per neighbor — and every ordered read (Snapshot, States,
// AppendIDs, DigestInto, Expire's result) gets its ascending-ID order
// from the layout. keys[n:] name the slots that are free, so the two
// arrays are equally long: they grow as links are heard (never pre-sized:
// a world holds thousands of monitors), and only when no slot is free. A
// pointer into slots (what Update returns) is good until the monitor is
// next modified.
type Monitor struct {
	keys   []key
	n      int // live links
	slots  []entry
	ttl    float64
	rangeM float64 // communication range r for Eqn (4)
	est    Estimator
	// oldest is a lower bound on the minimum LastSeen of any entry. The
	// per-tick expiry sweep compares it against now before iterating: a
	// table whose oldest possible entry is still fresh cannot hold anything
	// to expire, which skips the scan on almost every tick. Refreshing
	// an entry may leave the bound stale-low; that only costs one full
	// sweep, which recomputes it exactly.
	oldest float64
	// instrumentation: kinematic-memo effectiveness and how often the
	// expiry sweep actually walked the table (tests pin both).
	memoHits   uint64
	memoMisses uint64
	fullSweeps uint64
}

// key addresses one entry: keys are sorted by id, slot indexes Monitor.slots.
type key struct {
	id   NodeID
	slot int32
}

// entry is one stored link: the observed LinkState (derived fields zero)
// and the kinematic-lifetime memo — the Eqn (4) solution is reused while
// the observer's mobility epoch is lifeEpoch and Beacons is still
// lifeBeacons (0: nothing memoized).
type entry struct {
	LinkState
	lifeBeacons int
	lifeEpoch   uint64
	lifeVal     float64
}

// NewMonitor returns a monitor whose links expire ttl seconds after the
// last beacon, predicting with the given estimator (nil means the default
// composite estimator) over communication range rangeM.
func NewMonitor(ttl, rangeM float64, est Estimator) *Monitor {
	if est == nil {
		est = MustNew("", Config{Range: rangeM})
	}
	return &Monitor{ttl: ttl, rangeM: rangeM, est: est, oldest: math.Inf(1)}
}

// Estimator returns the monitor's estimator.
func (m *Monitor) Estimator() Estimator { return m.est }

// find returns the position of id among the live keys — where it is, or
// where it would be inserted — and its entry, nil when there is none. The
// bisection is written out: slices.BinarySearchFunc measured 2.5× slower
// on a 25-key table, and this is the per-beacon path.
func (m *Monitor) find(id NodeID) (int, *entry) {
	keys := m.keys[:m.n]
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(keys) && keys[lo].id == id {
		return lo, &m.slots[keys[lo].slot]
	}
	return lo, nil
}

// insert files a key for id at position i and returns its slot: a free
// one, or a new one when none is left.
func (m *Monitor) insert(i int, id NodeID) *entry {
	if m.n == len(m.keys) {
		if n := len(m.slots); n == cap(m.slots) {
			// by half, from 8: append's doubling would leave a 33-link
			// table holding 64 entries, in every table of a dense world
			m.slots = append(make([]entry, 0, max(8, n+n/2)), m.slots...)
		}
		m.keys = append(m.keys, key{slot: int32(len(m.slots))})
		m.slots = append(m.slots, entry{})
	}
	slot := m.keys[m.n].slot
	copy(m.keys[i+1:m.n+1], m.keys[i:m.n])
	m.keys[i] = key{id: id, slot: slot}
	m.n++
	return &m.slots[slot]
}

// Update inserts or refreshes an entry from a received beacon and returns
// the stored entry (observed fields only; derived fields are not computed
// here — read through State for predictions). The pointer is into the
// table: it is valid until the monitor is next modified.
func (m *Monitor) Update(id NodeID, kind NodeKind, pos, vel geom.Vec2, rssi, now float64) *LinkState {
	i, e := m.find(id)
	if e == nil {
		e = m.insert(i, id)
		*e = entry{LinkState: LinkState{ID: id, MeanRSSI: rssi, FirstSeen: now, FeedbackProb: 1}}
	} else if now > e.LastSeen {
		// slope of the raw RSSI between consecutive beacons, smoothed
		inst := (rssi - e.RSSI) / (now - e.LastSeen)
		e.RSSITrend = (1-trendAlpha)*e.RSSITrend + trendAlpha*inst
	}
	if now < m.oldest {
		m.oldest = now
	}
	e.Kind = kind
	e.Pos = pos
	e.Vel = vel
	e.RSSI = rssi
	// EWMA over beacons smooths shadowing; alpha 0.3 tracks mobility.
	e.MeanRSSI = (1-rssiAlpha)*e.MeanRSSI + rssiAlpha*rssi
	e.LastSeen = now
	e.Beacons++
	// a beacon got through: positive link feedback
	e.FeedbackProb = (1-feedbackAlpha)*e.FeedbackProb + feedbackAlpha
	return &e.LinkState
}

// RecordReceived folds a successfully received non-beacon frame from id
// into the link's feedback evidence. Unknown links (no beacon heard yet)
// are ignored — the table stays beacon-driven.
func (m *Monitor) RecordReceived(id NodeID) {
	if _, e := m.find(id); e != nil {
		e.Received++
		e.FeedbackProb = (1-feedbackAlpha)*e.FeedbackProb + feedbackAlpha
	}
}

// RecordSendFailed folds a MAC transmission failure (unicast ARQ budget
// exhausted sending to id) into the link's feedback evidence.
func (m *Monitor) RecordSendFailed(id NodeID) {
	if _, e := m.find(id); e != nil {
		e.TxFails++
		e.FeedbackProb = (1 - feedbackAlpha) * e.FeedbackProb
	}
}

// Get returns the raw observed entry for id (derived fields zero).
func (m *Monitor) Get(id NodeID) (LinkState, bool) {
	if _, e := m.find(id); e != nil {
		return e.LinkState, true
	}
	return LinkState{}, false
}

// Has reports whether id is currently a live link.
func (m *Monitor) Has(id NodeID) bool {
	_, e := m.find(id)
	return e != nil
}

// Len returns the number of live links.
func (m *Monitor) Len() int { return m.n }

// Remove deletes the entry for id, if present, discarding its evidence.
func (m *Monitor) Remove(id NodeID) {
	if i, e := m.find(id); e != nil {
		k := m.keys[i]
		copy(m.keys[i:], m.keys[i+1:m.n])
		m.n--
		m.keys[m.n] = k // its slot is free again
	}
}

// Reset discards every entry and its accumulated evidence, returning the
// monitor to its freshly-constructed state. A node recovering from a
// crash calls this so it re-enters the network with no stale neighbors or
// feedback history — everything it knows must be re-learned from beacons.
// Instrumentation counters survive; they describe the monitor's lifetime,
// not the current table.
func (m *Monitor) Reset() {
	m.n = 0
	m.oldest = math.Inf(1)
}

// AppendIDs appends the ID of every live link to dst in ascending order
// (from the layout) and returns it. Periodic scanners (the netstack's
// link audit) check membership with it without paying Snapshot's copy.
func (m *Monitor) AppendIDs(dst []NodeID) []NodeID {
	for _, k := range m.keys[:m.n] {
		dst = append(dst, k.id)
	}
	return dst
}

// AppendSnapshot appends every live entry to dst in ascending ID order
// (from the layout) and returns it; it allocates only to grow dst.
// Derived fields are zero; use AppendStates for predictions.
func (m *Monitor) AppendSnapshot(dst []LinkState) []LinkState {
	dst = slices.Grow(dst, m.n)
	for _, k := range m.keys[:m.n] {
		dst = append(dst, m.slots[k.slot].LinkState)
	}
	return dst
}

// Snapshot returns all live entries in ascending ID order (deterministic
// iteration for reproducible routing decisions) in a fresh slice the
// caller may keep.
func (m *Monitor) Snapshot() []LinkState {
	return m.AppendSnapshot(make([]LinkState, 0, m.n))
}

// State returns the link state for id with derived predictions filled by
// the estimator. It allocates nothing in steady state: the kinematic
// lifetime is memoized per (epoch, beacon count) inside the entry.
func (m *Monitor) State(id NodeID, obs Observer) (LinkState, bool) {
	if _, e := m.find(id); e != nil {
		return m.derive(e, obs), true
	}
	return LinkState{}, false
}

// AppendStates is AppendSnapshot with the derived predictions filled.
func (m *Monitor) AppendStates(dst []LinkState, obs Observer) []LinkState {
	dst = slices.Grow(dst, m.n)
	for _, k := range m.keys[:m.n] {
		dst = append(dst, m.derive(&m.slots[k.slot], obs))
	}
	return dst
}

// States returns the link state of every live link in ascending ID order
// with derived predictions filled, in a fresh slice the caller may keep.
func (m *Monitor) States(obs Observer) []LinkState {
	return m.AppendStates(make([]LinkState, 0, m.n), obs)
}

// derive copies the entry and fills the estimator-derived fields. The
// kinematic memo is written back into the stored entry.
func (m *Monitor) derive(e *entry, obs Observer) LinkState {
	kin := m.kinematic(e, obs)
	ls := e.LinkState
	ls.Age = obs.Now - ls.LastSeen
	p := m.est.Estimate(ls, obs, kin)
	ls.Lifetime = p.Lifetime
	ls.ReceiptProb = p.ReceiptProb
	return ls
}

// kinematic returns the memoized Eqn (4) residual lifetime of the link,
// solved on the neighbor's beaconed kinematics against the observer's
// current ones. The cached solution is reused while the observer's
// mobility epoch and the entry's beacon count are both unchanged — the
// only events that can move either endpoint's kinematics.
func (m *Monitor) kinematic(e *entry, obs Observer) float64 {
	if e.lifeBeacons == e.Beacons && e.lifeEpoch == obs.Epoch {
		m.memoHits++
		return e.lifeVal
	}
	m.memoMisses++
	v := link.LifetimeVec(e.Pos, e.Vel, obs.Pos, obs.Vel, m.rangeM)
	e.lifeEpoch = obs.Epoch
	e.lifeBeacons = e.Beacons
	e.lifeVal = v
	return v
}

// DigestInto folds the monitor's checkpoint-relevant state into d: every
// live entry's observed evidence in ascending ID order, plus the expiry
// lower bound and the instrumentation counters (all deterministic
// functions of the event history). The kinematic-lifetime memo fields
// are a pure cache of the entry's evidence and re-derived on
// first read after restore, so they are excluded — like the radio cache.
func (m *Monitor) DigestInto(d *digest.Writer) {
	d.Int(m.n)
	for _, k := range m.keys[:m.n] {
		e := &m.slots[k.slot]
		d.U32(uint32(e.ID))
		d.Int(int(e.Kind))
		d.F64(e.Pos.X)
		d.F64(e.Pos.Y)
		d.F64(e.Vel.X)
		d.F64(e.Vel.Y)
		d.F64(e.RSSI)
		d.F64(e.MeanRSSI)
		d.F64(e.LastSeen)
		d.Int(e.Beacons)
		d.F64(e.FirstSeen)
		d.F64(e.RSSITrend)
		d.Int(e.Received)
		d.Int(e.TxFails)
		d.F64(e.FeedbackProb)
	}
	d.F64(m.oldest)
	d.U64(m.memoHits)
	d.U64(m.memoMisses)
	d.U64(m.fullSweeps)
}

// Expire removes entries not refreshed since now−ttl and returns their IDs
// in ascending order: one pass that moves the keys kept to the front, in
// order, and so the keys of the freed slots behind them.
func (m *Monitor) Expire(now float64) []NodeID {
	if now-m.oldest <= m.ttl {
		return nil // even the oldest possible entry is still fresh
	}
	m.fullSweeps++
	var gone []NodeID
	min := math.Inf(1)
	kept := 0
	for i, k := range m.keys[:m.n] {
		seen := m.slots[k.slot].LastSeen
		if now-seen > m.ttl {
			gone = append(gone, k.id)
			continue
		}
		if seen < min {
			min = seen
		}
		m.keys[kept], m.keys[i] = k, m.keys[kept]
		kept++
	}
	m.n = kept
	m.oldest = min
	return gone
}

// MemoStats returns how often the kinematic lifetime memo hit and missed.
// With the grid epoch advancing once per tick, every State read after the
// first per (entry, tick) should hit — the counter test pins that.
func (m *Monitor) MemoStats() (hits, misses uint64) {
	return m.memoHits, m.memoMisses
}

// FullSweeps returns how many Expire calls actually walked the table
// (rather than being dismissed by the oldest-entry lower bound). A quiet
// table — no links, or none old enough to expire — must keep this at
// zero no matter how many ticks elapse.
func (m *Monitor) FullSweeps() uint64 { return m.fullSweeps }
