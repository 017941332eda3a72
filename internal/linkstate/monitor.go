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
// A beacon is recorded, not applied: Update appends it to inbox, and fold
// applies the inbox in reception order when it is full and before the
// table is next read, edited or swept. Every method that looks at keys or
// slots calls sync first, so the deferral is invisible — but a world of
// thousands of tables pulls each into cache once per batch of beacons
// instead of once per beacon.
//
// Layout: keys[:n] is a small array of (ID, slot) pairs kept in ascending
// ID order and bisected without hashing; slots holds the entries
// themselves, which stay where they are — an insert or expiry shifts 8
// bytes per neighbor — and every ordered read (Snapshot, States,
// AppendIDs, DigestInto, Expire's result) gets its ascending-ID order
// from the layout. keys[n:] name the slots that are free, so the two
// arrays are equally long: they grow together as links are heard (never
// pre-sized: a world holds thousands of monitors), and only when no slot
// is free.
type Monitor struct {
	inbox []heard // beacons recorded since the last fold; nil until the first
	// oldest is a lower bound on the minimum LastSeen of any entry, pending
	// beacons included. The per-tick expiry sweep compares it against now
	// before folding or iterating: a table whose oldest possible entry is
	// still fresh cannot hold anything to expire, which skips the scan on
	// almost every tick. Refreshing an entry may leave the bound
	// stale-low; that only costs one full sweep, which recomputes it
	// exactly.
	oldest float64
	ttl    float64
	keys   []key
	n      int // live links
	slots  []entry
	rangeM float64 // communication range r for Eqn (4)
	est    Estimator
	// instrumentation: kinematic-memo effectiveness and how often the
	// expiry sweep actually walked the table (tests pin both).
	memoHits   uint64
	memoMisses uint64
	fullSweeps uint64
}

// inboxCap is how many beacons a monitor records before it folds them: 8,
// 16 and 32 measured alike on the 5,000-table highway, and 16 records are
// under 1 KB per beaconing node.
const inboxCap = 16

// heard is one recorded beacon.
type heard struct {
	id        NodeID
	kind      uint8
	pos, vel  geom.Vec2
	rssi, now float64
}

// key addresses one entry: keys are sorted by id, slot indexes Monitor.slots.
type key struct {
	id   NodeID
	slot int32
}

// entry is one stored link: the observed fields of LinkState, packed — a
// table is read a cache line at a time, so counters are 32 bits, the kind
// one byte, and the derived fields (never stored) are absent — and the
// kinematic-lifetime memo: the Eqn (4) solution is reused while the
// observer's mobility epoch is lifeEpoch and beacons is still lifeBeacons
// (0: nothing memoized).
type entry struct {
	id          NodeID
	kind        uint8
	beacons     int32
	lifeBeacons int32
	pos, vel    geom.Vec2
	rssi        float64
	meanRSSI    float64
	lastSeen    float64
	rssiTrend   float64
	feedback    float64
	firstSeen   float64
	lifeEpoch   uint64
	lifeVal     float64
	received    int32
	txFails     int32
}

// put writes the entry into ls as the public record, derived fields zero.
// It writes in place because returning a LinkState built here costs every
// read a zeroing and a copy of 152 bytes on top of the fill.
func (e *entry) put(ls *LinkState) {
	ls.ID, ls.Kind, ls.Pos, ls.Vel = e.id, NodeKind(e.kind), e.pos, e.vel
	ls.RSSI, ls.MeanRSSI, ls.LastSeen, ls.Beacons = e.rssi, e.meanRSSI, e.lastSeen, int(e.beacons)
	ls.FirstSeen, ls.RSSITrend = e.firstSeen, e.rssiTrend
	ls.Received, ls.TxFails, ls.FeedbackProb = int(e.received), int(e.txFails), e.feedback
	ls.Age, ls.Lifetime, ls.ReceiptProb = 0, 0, 0
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
			c := max(8, n+n/2)
			m.slots = append(make([]entry, 0, c), m.slots...)
			m.keys = append(make([]key, 0, c), m.keys...)
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

// Update records a received beacon. It is applied to the table — the
// entry inserted or refreshed — by the next fold: when the inbox is full,
// or before anything reads, edits or sweeps the table. kind must fit a
// byte.
func (m *Monitor) Update(id NodeID, kind NodeKind, pos, vel geom.Vec2, rssi, now float64) {
	if len(m.inbox) == cap(m.inbox) {
		if m.inbox == nil {
			m.inbox = make([]heard, 0, inboxCap)
		} else {
			m.fold()
		}
	}
	m.inbox = m.inbox[:len(m.inbox)+1]
	b := &m.inbox[len(m.inbox)-1] // written in place: append builds the record, then copies it
	b.id, b.kind, b.pos, b.vel, b.rssi, b.now = id, uint8(kind), pos, vel, rssi, now
	if now < m.oldest {
		m.oldest = now // here, not in fold: Expire reads it before folding
	}
}

// sync folds what Update recorded, so the caller sees the table the
// beacons heard so far make.
func (m *Monitor) sync() {
	if len(m.inbox) != 0 {
		m.fold()
	}
}

// fold applies the recorded beacons to the table in reception order.
func (m *Monitor) fold() {
	for i := range m.inbox {
		b := &m.inbox[i]
		at, e := m.find(b.id)
		if e == nil {
			e = m.insert(at, b.id)
			*e = entry{id: b.id, meanRSSI: b.rssi, firstSeen: b.now, feedback: 1}
		} else if b.now > e.lastSeen {
			// slope of the raw RSSI between consecutive beacons, smoothed
			inst := (b.rssi - e.rssi) / (b.now - e.lastSeen)
			e.rssiTrend = (1-trendAlpha)*e.rssiTrend + trendAlpha*inst
		}
		e.kind = b.kind
		e.pos = b.pos
		e.vel = b.vel
		e.rssi = b.rssi
		// EWMA over beacons smooths shadowing; alpha 0.3 tracks mobility.
		e.meanRSSI = (1-rssiAlpha)*e.meanRSSI + rssiAlpha*b.rssi
		e.lastSeen = b.now
		e.beacons++
		// a beacon got through: positive link feedback
		e.feedback = (1-feedbackAlpha)*e.feedback + feedbackAlpha
	}
	m.inbox = m.inbox[:0]
}

// RecordReceived folds a successfully received non-beacon frame from id
// into the link's feedback evidence. Unknown links (no beacon heard yet)
// are ignored — the table stays beacon-driven.
func (m *Monitor) RecordReceived(id NodeID) {
	m.sync()
	if _, e := m.find(id); e != nil {
		e.received++
		e.feedback = (1-feedbackAlpha)*e.feedback + feedbackAlpha
	}
}

// RecordSendFailed folds a MAC transmission failure (unicast ARQ budget
// exhausted sending to id) into the link's feedback evidence.
func (m *Monitor) RecordSendFailed(id NodeID) {
	m.sync()
	if _, e := m.find(id); e != nil {
		e.txFails++
		e.feedback = (1 - feedbackAlpha) * e.feedback
	}
}

// Has reports whether id is currently a live link.
func (m *Monitor) Has(id NodeID) bool {
	m.sync()
	_, e := m.find(id)
	return e != nil
}

// Len returns the number of live links.
func (m *Monitor) Len() int {
	m.sync()
	return m.n
}

// Remove deletes the entry for id, if present, discarding its evidence.
func (m *Monitor) Remove(id NodeID) {
	m.sync()
	if i, e := m.find(id); e != nil {
		k := m.keys[i]
		copy(m.keys[i:], m.keys[i+1:m.n])
		m.n--
		m.keys[m.n] = k // its slot is free again
	}
}

// Reset discards every entry, every beacon not yet folded and the
// accumulated evidence, returning the monitor to its freshly-constructed
// state. A node recovering from a crash calls this so it re-enters the
// network with no stale neighbors or feedback history — everything it
// knows must be re-learned from beacons. Instrumentation counters
// survive; they describe the monitor's lifetime, not the current table.
func (m *Monitor) Reset() {
	m.n = 0
	m.inbox = m.inbox[:0]
	m.oldest = math.Inf(1)
}

// AppendIDs appends the ID of every live link to dst in ascending order
// (from the layout) and returns it. Periodic scanners (the netstack's
// link audit) check membership with it without paying Snapshot's copy.
func (m *Monitor) AppendIDs(dst []NodeID) []NodeID {
	m.sync()
	for _, k := range m.keys[:m.n] {
		dst = append(dst, k.id)
	}
	return dst
}

// AppendSnapshot appends every live entry to dst in ascending ID order
// (from the layout) and returns it; it allocates only to grow dst.
// Derived fields are zero; use AppendStates for predictions.
func (m *Monitor) AppendSnapshot(dst []LinkState) []LinkState {
	m.sync()
	at := len(dst)
	dst = slices.Grow(dst, m.n)[:at+m.n]
	for i, k := range m.keys[:m.n] {
		m.slots[k.slot].put(&dst[at+i])
	}
	return dst
}

// Snapshot returns all live entries in ascending ID order (deterministic
// iteration for reproducible routing decisions) in a fresh slice the
// caller may keep.
func (m *Monitor) Snapshot() []LinkState {
	return m.AppendSnapshot(make([]LinkState, 0, m.Len()))
}

// State returns the link state for id with derived predictions filled by
// the estimator. It allocates nothing in steady state: the kinematic
// lifetime is memoized per (epoch, beacon count) inside the entry.
func (m *Monitor) State(id NodeID, obs Observer) (ls LinkState, ok bool) {
	m.sync()
	if _, e := m.find(id); e != nil {
		m.derive(e, obs, &ls)
		return ls, true
	}
	return ls, false
}

// AppendStates is AppendSnapshot with the derived predictions filled.
func (m *Monitor) AppendStates(dst []LinkState, obs Observer) []LinkState {
	m.sync()
	at := len(dst)
	dst = slices.Grow(dst, m.n)[:at+m.n]
	for i, k := range m.keys[:m.n] {
		m.derive(&m.slots[k.slot], obs, &dst[at+i])
	}
	return dst
}

// States returns the link state of every live link in ascending ID order
// with derived predictions filled, in a fresh slice the caller may keep.
func (m *Monitor) States(obs Observer) []LinkState {
	return m.AppendStates(make([]LinkState, 0, m.Len()), obs)
}

// derive writes the entry into ls and fills the estimator-derived fields.
// The kinematic memo is written back into the stored entry.
func (m *Monitor) derive(e *entry, obs Observer, ls *LinkState) {
	kin := m.kinematic(e, obs)
	e.put(ls)
	ls.Age = obs.Now - ls.LastSeen
	p := m.est.Estimate(*ls, obs, kin)
	ls.Lifetime = p.Lifetime
	ls.ReceiptProb = p.ReceiptProb
}

// kinematic returns the memoized Eqn (4) residual lifetime of the link,
// solved on the neighbor's beaconed kinematics against the observer's
// current ones. The cached solution is reused while the observer's
// mobility epoch and the entry's beacon count are both unchanged — the
// only events that can move either endpoint's kinematics.
func (m *Monitor) kinematic(e *entry, obs Observer) float64 {
	if e.lifeBeacons == e.beacons && e.lifeEpoch == obs.Epoch {
		m.memoHits++
		return e.lifeVal
	}
	m.memoMisses++
	v := link.LifetimeVec(e.pos, e.vel, obs.Pos, obs.Vel, m.rangeM)
	e.lifeEpoch = obs.Epoch
	e.lifeBeacons = e.beacons
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
	m.sync()
	d.Int(m.n)
	for _, k := range m.keys[:m.n] {
		e := &m.slots[k.slot]
		d.U32(uint32(e.id))
		d.Int(int(e.kind))
		d.F64(e.pos.X)
		d.F64(e.pos.Y)
		d.F64(e.vel.X)
		d.F64(e.vel.Y)
		d.F64(e.rssi)
		d.F64(e.meanRSSI)
		d.F64(e.lastSeen)
		d.Int(int(e.beacons))
		d.F64(e.firstSeen)
		d.F64(e.rssiTrend)
		d.Int(int(e.received))
		d.Int(int(e.txFails))
		d.F64(e.feedback)
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
	m.sync()
	m.fullSweeps++
	var gone []NodeID
	min := math.Inf(1)
	kept := 0
	for i, k := range m.keys[:m.n] {
		seen := m.slots[k.slot].lastSeen
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
