package linkstate

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// modelPair is a Monitor and the reference fed the same operations.
type modelPair struct {
	t    testing.TB
	m    *Monitor
	ref  *refMonitor
	now  float64
	step int
}

const modelTTL, modelRange = 2.5, 250

func newModelPair(t testing.TB) *modelPair {
	est := MustNew("", Config{Range: modelRange})
	return &modelPair{t: t, m: NewMonitor(modelTTL, modelRange, est), ref: newRefMonitor(modelTTL, modelRange, est)}
}

// hear is one beacon from id at p.now. It reads nothing back: the beacon
// stays in the monitor's inbox while the reference applies it at once.
func (p *modelPair) hear(id NodeID, arg float64) {
	pos, vel := geom.V(float64(id)*9+arg, arg/32), geom.V(arg/8-16, 0)
	kind := Vehicle + NodeKind(int(arg)%3)
	p.m.Update(id, kind, pos, vel, -40-arg/4, p.now)
	p.ref.update(id, kind, pos, vel, -40-arg/4, p.now)
}

func (p *modelPair) expire(now float64) {
	p.t.Helper()
	if got, want := p.m.Expire(now), p.ref.expire(now); !slices.Equal(got, want) {
		p.t.Fatalf("step %d: Expire(%v) = %v, want %v", p.step, now, got, want)
	}
}

// check requires every observable of the two to agree.
func (p *modelPair) check(id NodeID, obs Observer) {
	p.t.Helper()
	t, m, ref, step := p.t, p.m, p.ref, p.step
	if m.Len() != len(ref.entries) {
		t.Fatalf("step %d: Len = %d, want %d", step, m.Len(), len(ref.entries))
	}
	got, ok := observed(m, id)
	want, wantOK := ref.get(id)
	if ok != wantOK || m.Has(id) != wantOK || got != want {
		t.Fatalf("step %d: entry %d = %+v %v, want %+v %v", step, id, got, ok, want, wantOK)
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

// runMonitorTrace decodes data into a trace of monitor operations — three
// bytes each: opcode, neighbour, argument — applies it to a Monitor and to
// the reference, and requires every observable to agree after every step
// that is not a beacon: a check reads, and so folds, and beacons must pile
// up unread for the inbox to fill. IDs come from a space of 48 so traces
// collide, refill freed slots and grow the table several times; the clock
// only moves forward.
func runMonitorTrace(t testing.TB, data []byte) {
	p := newModelPair(t)
	for ; len(data) >= 3; p.step++ {
		op, id, arg := data[0]%13, NodeID(data[1]%48), float64(data[2])
		data = data[3:]
		p.now += arg / 256
		obs := Observer{Pos: geom.V(arg, 3), Vel: geom.V(arg/16-8, 0), Now: p.now, Epoch: uint64(arg) / 32}
		switch op {
		case 0, 1, 2, 3, 4, 5: // beacons dominate, as in a run
			p.hear(id, arg)
			continue
		case 6:
			p.m.RecordReceived(id)
			p.ref.recordReceived(id)
		case 7:
			p.m.RecordSendFailed(id)
			p.ref.recordSendFailed(id)
		case 8:
			p.m.Remove(id)
			delete(p.ref.entries, id)
		case 9:
			p.now += modelTTL * arg / 256 // let some, all or none of the table go stale
			p.expire(p.now)
		case 10:
			got, ok := p.m.State(id, obs)
			want, wantOK := p.ref.state(id, obs)
			if ok != wantOK || got != want {
				t.Fatalf("step %d: State(%d) = %+v %v, want %+v %v", p.step, id, got, ok, want, wantOK)
			}
		case 11:
			if arg < 32 { // a crash recovery is rare
				p.m.Reset()
				p.ref.reset()
			}
		case 12: // a burst: up to two inboxes' worth of beacons, unread
			for k := 0; k < int(arg)%(2*inboxCap+2); k++ {
				p.now += 1.0 / 1024
				p.hear((id+NodeID(k)*5)%48, arg+float64(k))
			}
			continue
		}
		p.check(id, obs)
	}
	p.check(0, Observer{Now: p.now})
}

// TestMonitorFoldsAtEveryInboxLevel leaves 0, 1, 15, 16 and 17 beacons
// unread — an empty inbox, one record, one short of full, full, and one
// past the fold a full inbox forces — before each kind of operation, and
// requires the reference's answer: a beacon in the inbox is as heard as
// one in the table.
func TestMonitorFoldsAtEveryInboxLevel(t *testing.T) {
	const stranger = NodeID(40) // heard only by beacons still in the inbox
	obs := Observer{Pos: geom.V(100, 3), Vel: geom.V(20, 0), Epoch: 7}
	ops := map[string]func(p *modelPair){
		"Has": func(p *modelPair) {
			if _, want := p.ref.get(stranger); p.m.Has(stranger) != want {
				p.t.Fatalf("Has = %v, want %v", !want, want)
			}
		},
		"Len": func(p *modelPair) {
			if p.m.Len() != len(p.ref.entries) {
				p.t.Fatalf("Len = %d, want %d", p.m.Len(), len(p.ref.entries))
			}
		},
		"State": func(p *modelPair) {
			got, _ := p.m.State(stranger, obs)
			if want, _ := p.ref.state(stranger, obs); got != want {
				p.t.Fatalf("State = %+v, want %+v", got, want)
			}
		},
		"AppendIDs": func(p *modelPair) {
			if got := p.m.AppendIDs(nil); len(got) != len(p.ref.entries) {
				p.t.Fatalf("AppendIDs = %v, want %d IDs", got, len(p.ref.entries))
			}
		},
		"Snapshot": func(p *modelPair) {
			if got, want := p.m.Snapshot(), p.ref.snapshot(); !slices.Equal(got, want) {
				p.t.Fatalf("Snapshot = %+v, want %+v", got, want)
			}
		},
		"States": func(p *modelPair) {
			if got, want := p.m.States(obs), p.ref.states(obs); !slices.Equal(got, want) {
				p.t.Fatalf("States = %+v, want %+v", got, want)
			}
		},
		"DigestInto": func(p *modelPair) {
			d, refD := digest.New(), digest.New()
			p.m.DigestInto(d)
			p.ref.digestInto(refD)
			if d.Sum() != refD.Sum() {
				p.t.Fatalf("digest %x, want %x", d.Sum(), refD.Sum())
			}
		},
		"RecordReceived": func(p *modelPair) {
			p.m.RecordReceived(stranger)
			p.ref.recordReceived(stranger)
			if got, ok := observed(p.m, stranger); ok && got.Received != 1 {
				p.t.Fatalf("reception from a neighbour still in the inbox was lost: %+v", got)
			}
		},
		"RecordSendFailed": func(p *modelPair) {
			p.m.RecordSendFailed(stranger)
			p.ref.recordSendFailed(stranger)
			if got, ok := observed(p.m, stranger); ok && got.TxFails != 1 {
				p.t.Fatalf("failure towards a neighbour still in the inbox was lost: %+v", got)
			}
		},
		"Remove then a fresh beacon": func(p *modelPair) {
			p.m.Remove(stranger)
			delete(p.ref.entries, stranger)
			p.now += 0.01
			p.hear(stranger, 9)
			if got, _ := observed(p.m, stranger); got.Beacons != 1 || got.FirstSeen != p.now {
				p.t.Fatalf("re-heard after Remove: %+v, want Beacons 1 and FirstSeen %v", got, p.now)
			}
		},
		"Reset": func(p *modelPair) {
			p.m.Reset()
			p.ref.reset()
			if p.m.Len() != 0 {
				p.t.Fatalf("Len = %d after Reset", p.m.Len())
			}
			p.now += 0.01
			p.hear(3, 9) // the next fold must apply this beacon and nothing older
			if got := p.m.AppendIDs(nil); !slices.Equal(got, []NodeID{3}) {
				p.t.Fatalf("table after Reset and one beacon = %v, want [3]", got)
			}
		},
		"Expire that early-outs": func(p *modelPair) {
			pending, sweeps := len(p.m.inbox), p.m.FullSweeps()
			p.expire(p.now + 0.01)
			if len(p.m.inbox) != pending || p.m.FullSweeps() != sweeps {
				p.t.Fatalf("early-out folded or swept: inbox %d → %d, sweeps %d → %d",
					pending, len(p.m.inbox), sweeps, p.m.FullSweeps())
			}
		},
		"Expire that sweeps": func(p *modelPair) {
			p.expire(modelTTL + 0.05) // the warm-up beacons of t = 0 are stale, the unread ones are not
			if len(p.m.inbox) != 0 {
				p.t.Fatalf("sweep left %d beacons unread", len(p.m.inbox))
			}
		},
	}
	for _, level := range []int{0, 1, inboxCap - 1, inboxCap, inboxCap + 1} {
		for name, op := range ops {
			t.Run(fmt.Sprintf("%d unread/%s", level, name), func(t *testing.T) {
				p := newModelPair(t)
				for id := NodeID(0); id < 6; id++ { // a table to refresh
					p.hear(id, float64(id))
				}
				p.check(0, obs)
				p.now = 0.2
				for k := 0; k < level; k++ {
					p.now += 0.01
					id := NodeID(k % 10) // refreshes and four new links …
					if k == 0 {
						id = stranger // … after one nobody has read about
					}
					p.hear(id, float64(k))
				}
				if want := (level-1)%inboxCap + 1; len(p.m.inbox) != want {
					t.Fatalf("%d beacons in the inbox, want %d", len(p.m.inbox), want)
				}
				obs := obs
				obs.Now = p.now
				op(p)
				p.check(stranger, obs)
			})
		}
	}
}

// TestExportedMethodsFold guards the methods added later: every exported
// method of *Monitor either is listed here as not looking at the table, or
// leaves the inbox empty when called with a beacon unread.
func TestExportedMethodsFold(t *testing.T) {
	tableBlind := map[string]bool{"Update": true, "MemoStats": true, "FullSweeps": true, "Reset": true}
	typ := reflect.TypeOf(&Monitor{})
	for i := 0; i < typ.NumMethod(); i++ {
		meth := typ.Method(i)
		if tableBlind[meth.Name] {
			continue
		}
		m := NewMonitor(modelTTL, modelRange, nil)
		m.Update(1, Vehicle, geom.V(10, 0), geom.V(5, 0), -60, 0)
		args := []reflect.Value{reflect.ValueOf(m)}
		for j := 1; j < meth.Type.NumIn(); j++ {
			switch in := meth.Type.In(j); in {
			case reflect.TypeOf(digest.New()):
				args = append(args, reflect.ValueOf(digest.New()))
			case reflect.TypeOf(0.0):
				args = append(args, reflect.ValueOf(100.0)) // Expire's now: past the TTL, so past its early-out
			default:
				args = append(args, reflect.Zero(in))
			}
		}
		meth.Func.Call(args)
		if len(m.inbox) != 0 {
			t.Errorf("%s left the beacon unread: it must call sync before it looks at the table", meth.Name)
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
	f.Add([]byte{12, 3, 33, 6, 3, 0, 9, 0, 200, 12, 7, 17, 11, 0, 1, 0, 4, 9})
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
			if got, ok := observed(m, want); !ok || got.Pos.X != float64(want) {
				t.Fatalf("n=%d: entry %d = %+v %v", n, want, got, ok)
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
