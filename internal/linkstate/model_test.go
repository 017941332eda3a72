package linkstate

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/link"
)

// refMonitor is the reference the flat table is checked against: the
// map-backed monitor the table replaced, every ordered read sorting by ID.
// It shares nothing with Monitor but the constants and the estimator.
type refMonitor struct {
	entries                map[NodeID]*refEntry
	ttl, rangeM, oldest    float64
	est                    Estimator
	hits, misses, fullScan uint64
}

type refEntry struct {
	LinkState
	lifeOK      bool
	lifeEpoch   uint64
	lifeBeacons int
	lifeVal     float64
}

func newRefMonitor(ttl, rangeM float64, est Estimator) *refMonitor {
	return &refMonitor{entries: map[NodeID]*refEntry{}, ttl: ttl, rangeM: rangeM, est: est, oldest: math.Inf(1)}
}

func (m *refMonitor) update(id NodeID, kind NodeKind, pos, vel geom.Vec2, rssi, now float64) LinkState {
	e, ok := m.entries[id]
	if !ok {
		e = &refEntry{LinkState: LinkState{ID: id, MeanRSSI: rssi, FirstSeen: now, FeedbackProb: 1}}
		m.entries[id] = e
	}
	if now < m.oldest {
		m.oldest = now
	}
	if ok && now > e.LastSeen {
		inst := (rssi - e.RSSI) / (now - e.LastSeen)
		e.RSSITrend = (1-trendAlpha)*e.RSSITrend + trendAlpha*inst
	}
	e.Kind, e.Pos, e.Vel, e.RSSI = kind, pos, vel, rssi
	e.MeanRSSI = (1-rssiAlpha)*e.MeanRSSI + rssiAlpha*rssi
	e.LastSeen = now
	e.Beacons++
	e.FeedbackProb = (1-feedbackAlpha)*e.FeedbackProb + feedbackAlpha
	return e.LinkState
}

func (m *refMonitor) recordReceived(id NodeID) {
	if e, ok := m.entries[id]; ok {
		e.Received++
		e.FeedbackProb = (1-feedbackAlpha)*e.FeedbackProb + feedbackAlpha
	}
}

func (m *refMonitor) recordSendFailed(id NodeID) {
	if e, ok := m.entries[id]; ok {
		e.TxFails++
		e.FeedbackProb = (1 - feedbackAlpha) * e.FeedbackProb
	}
}

func (m *refMonitor) get(id NodeID) (LinkState, bool) {
	if e, ok := m.entries[id]; ok {
		return e.LinkState, true
	}
	return LinkState{}, false
}

func (m *refMonitor) reset() {
	clear(m.entries)
	m.oldest = math.Inf(1)
}

func (m *refMonitor) sorted() []*refEntry {
	out := make([]*refEntry, 0, len(m.entries))
	for _, e := range m.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (m *refMonitor) snapshot() []LinkState {
	out := make([]LinkState, 0, len(m.entries))
	for _, e := range m.sorted() {
		out = append(out, e.LinkState)
	}
	return out
}

func (m *refMonitor) derive(e *refEntry, obs Observer) LinkState {
	if e.lifeOK && e.lifeEpoch == obs.Epoch && e.lifeBeacons == e.Beacons {
		m.hits++
	} else {
		m.misses++
		e.lifeOK, e.lifeEpoch, e.lifeBeacons = true, obs.Epoch, e.Beacons
		e.lifeVal = link.LifetimeVec(e.Pos, e.Vel, obs.Pos, obs.Vel, m.rangeM)
	}
	ls := e.LinkState
	ls.Age = obs.Now - ls.LastSeen
	p := m.est.Estimate(ls, obs, e.lifeVal)
	ls.Lifetime, ls.ReceiptProb = p.Lifetime, p.ReceiptProb
	return ls
}

func (m *refMonitor) state(id NodeID, obs Observer) (LinkState, bool) {
	if e, ok := m.entries[id]; ok {
		return m.derive(e, obs), true
	}
	return LinkState{}, false
}

func (m *refMonitor) states(obs Observer) []LinkState {
	out := make([]LinkState, 0, len(m.entries))
	for _, e := range m.sorted() {
		out = append(out, m.derive(e, obs))
	}
	return out
}

func (m *refMonitor) expire(now float64) []NodeID {
	if now-m.oldest <= m.ttl {
		return nil
	}
	m.fullScan++
	var gone []NodeID
	min := math.Inf(1)
	for _, e := range m.sorted() {
		if now-e.LastSeen > m.ttl {
			gone = append(gone, e.ID)
			delete(m.entries, e.ID)
		} else if e.LastSeen < min {
			min = e.LastSeen
		}
	}
	m.oldest = min
	return gone
}

func (m *refMonitor) digestInto(d *digest.Writer) {
	d.Int(len(m.entries))
	for _, e := range m.sorted() {
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
	d.U64(m.hits)
	d.U64(m.misses)
	d.U64(m.fullScan)
}

// runMonitorTrace decodes data into a trace of monitor operations — three
// bytes each: opcode, neighbour, argument — applies it to a Monitor and to
// the reference, and requires every observable to agree after every step.
// IDs come from a space of 48 so traces collide, refill freed slots and
// grow the table several times; the clock only moves forward.
func runMonitorTrace(t testing.TB, data []byte) {
	const ttl, rangeM = 2.5, 250
	est := MustNew("", Config{Range: rangeM})
	m, ref := NewMonitor(ttl, rangeM, est), newRefMonitor(ttl, rangeM, est)
	now := 0.0
	for step := 0; len(data) >= 3; step++ {
		op, id, arg := data[0]%12, NodeID(data[1]%48), float64(data[2])
		data = data[3:]
		now += arg / 256
		obs := Observer{Pos: geom.V(arg, 3), Vel: geom.V(arg/16-8, 0), Now: now, Epoch: uint64(arg) / 32}
		switch op {
		case 0, 1, 2, 3, 4, 5: // beacons dominate, as in a run
			pos, vel := geom.V(float64(id)*9+arg, arg/32), geom.V(arg/8-16, 0)
			kind := Vehicle + NodeKind(int(arg)%3)
			got := *m.Update(id, kind, pos, vel, -40-arg/4, now)
			if want := ref.update(id, kind, pos, vel, -40-arg/4, now); got != want {
				t.Fatalf("step %d: Update(%d) = %+v, want %+v", step, id, got, want)
			}
		case 6:
			m.RecordReceived(id)
			ref.recordReceived(id)
		case 7:
			m.RecordSendFailed(id)
			ref.recordSendFailed(id)
		case 8:
			m.Remove(id)
			delete(ref.entries, id)
		case 9:
			now += ttl * arg / 256 // let some, all or none of the table go stale
			got, want := m.Expire(now), ref.expire(now)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: Expire(%v) = %v, want %v", step, now, got, want)
			}
		case 10:
			got, ok := m.State(id, obs)
			want, wantOK := ref.state(id, obs)
			if ok != wantOK || got != want {
				t.Fatalf("step %d: State(%d) = %+v %v, want %+v %v", step, id, got, ok, want, wantOK)
			}
		case 11:
			if arg < 32 { // a crash recovery is rare
				m.Reset()
				ref.reset()
			}
		}
		if m.Len() != len(ref.entries) {
			t.Fatalf("step %d: Len = %d, want %d", step, m.Len(), len(ref.entries))
		}
		got, ok := m.Get(id)
		want, wantOK := ref.get(id)
		if ok != wantOK || m.Has(id) != wantOK || got != want {
			t.Fatalf("step %d: Get(%d) = %+v %v, want %+v %v", step, id, got, ok, want, wantOK)
		}
		if got, want := m.Snapshot(), ref.snapshot(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Snapshot = %+v, want %+v", step, got, want)
		}
		if got, want := m.States(obs), ref.states(obs); !slices.Equal(got, want) {
			t.Fatalf("step %d: States = %+v, want %+v", step, got, want)
		}
		ids := m.AppendIDs(nil)
		for i, e := range ref.sorted() {
			if i >= len(ids) || ids[i] != e.ID {
				t.Fatalf("step %d: AppendIDs = %v, want ID %d at %d", step, ids, e.ID, i)
			}
		}
		hits, misses := m.MemoStats()
		if hits != ref.hits || misses != ref.misses || m.FullSweeps() != ref.fullScan {
			t.Fatalf("step %d: memo %d/%d sweeps %d, want %d/%d and %d",
				step, hits, misses, m.FullSweeps(), ref.hits, ref.misses, ref.fullScan)
		}
		d, refD := digest.New(), digest.New()
		m.DigestInto(d)
		ref.digestInto(refD)
		if d.Sum() != refD.Sum() {
			t.Fatalf("step %d: digest %x, want %x", step, d.Sum(), refD.Sum())
		}
	}
}

// TestMonitorMatchesMapModel runs seeded random traces under plain
// `go test`; FuzzMonitorOps explores beyond them.
func TestMonitorMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*600)
		rng.Read(data)
		runMonitorTrace(t, data)
	}
}

func FuzzMonitorOps(f *testing.F) {
	f.Add([]byte{0, 1, 10, 0, 2, 10, 9, 0, 255, 0, 3, 1})
	f.Add([]byte{0, 5, 0, 8, 5, 0, 0, 6, 0, 11, 0, 0, 0, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runMonitorTrace(t, data) })
}

// TestNeighborOrderContract pins the ordering every reader relies on at
// the table sizes where the layout changes shape: empty, one entry, either
// side of the first growth step (8 slots), a dense city table that has
// grown four times (33), and a table no road produces. IDs arrive in a scrambled order and come back ascending
// from every ordered read, with lookups agreeing.
func TestNeighborOrderContract(t *testing.T) {
	for _, n := range []int{0, 1, 8, 9, 33, 200} {
		m := NewMonitor(2.5, 250, nil)
		for i := 0; i < n; i++ {
			id := NodeID(i * 37 % n * 3) // a permutation of 0, 3, …, 3(n−1): 37 is coprime to every n here
			m.Update(id, Vehicle, geom.V(float64(id), 0), geom.Vec2{}, -60, float64(i)*0.001)
		}
		if m.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, m.Len())
		}
		obs := Observer{Now: 1, Epoch: 1}
		ids, snap, states := m.AppendIDs(nil), m.Snapshot(), m.States(obs)
		if len(ids) != n || len(snap) != n || len(states) != n {
			t.Fatalf("n=%d: reads returned %d/%d/%d entries", n, len(ids), len(snap), len(states))
		}
		for i := 0; i < n; i++ {
			want := NodeID(3 * i)
			if ids[i] != want || snap[i].ID != want || states[i].ID != want {
				t.Fatalf("n=%d: position %d holds %d/%d/%d, want %d", n, i, ids[i], snap[i].ID, states[i].ID, want)
			}
			if got, ok := m.Get(want); !ok || got.Pos.X != float64(want) {
				t.Fatalf("n=%d: Get(%d) = %+v %v", n, want, got, ok)
			}
			if m.Has(want+1) || m.Has(want-1) {
				t.Fatalf("n=%d: Has reports an ID between entries near %d", n, want)
			}
		}
		if gone := m.Expire(10); len(gone) != n || !slices.IsSorted(gone) {
			t.Fatalf("n=%d: Expire returned %v", n, gone)
		}
	}
}
