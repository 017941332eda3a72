package linkstate

import (
	"math"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/prob"
)

// observed is the raw entry for id as Snapshot reports it, derived fields
// zero.
func observed(m *Monitor, id NodeID) (LinkState, bool) {
	for _, ls := range m.Snapshot() {
		if ls.ID == id {
			return ls, true
		}
	}
	return LinkState{}, false
}

func TestMonitorUpdateAndExpire(t *testing.T) {
	m := NewMonitor(2.5, 250, nil)
	m.Update(1, Vehicle, geom.V(10, 0), geom.V(5, 0), -60, 0)
	m.Update(2, RSU, geom.V(50, 0), geom.Vec2{}, -70, 0.4)
	if m.Len() != 2 || !m.Has(1) || m.Has(3) {
		t.Fatalf("table contents wrong: len=%d", m.Len())
	}
	e, ok := observed(m, 1)
	if !ok || e.Kind != Vehicle || e.Beacons != 1 || e.MeanRSSI != -60 {
		t.Fatalf("entry = %+v", e)
	}
	if e.FeedbackProb != 1 {
		t.Fatalf("fresh link FeedbackProb = %v, want 1", e.FeedbackProb)
	}
	// refresh: EWMA pulls MeanRSSI toward the new sample
	m.Update(1, Vehicle, geom.V(15, 0), geom.V(5, 0), -70, 1)
	e, _ = observed(m, 1)
	if want := 0.7*-60 + 0.3*-70; e.MeanRSSI != want {
		t.Fatalf("MeanRSSI = %v, want %v", e.MeanRSSI, want)
	}
	if e.Beacons != 2 || e.FirstSeen != 0 {
		t.Fatalf("entry after refresh = %+v", e)
	}
	// RSSI dropped 10 dB over 1 s: trend is smoothed toward −10 dB/s
	if want := 0.3 * -10.0; e.RSSITrend != want {
		t.Fatalf("RSSITrend = %v, want %v", e.RSSITrend, want)
	}
	// node 2 expires (last beacon 0.4, ttl 2.5), node 1 stays (beacon at 1)
	gone := m.Expire(3.2)
	if len(gone) != 1 || gone[0] != 2 {
		t.Fatalf("expired = %v", gone)
	}
	if m.Len() != 1 {
		t.Fatalf("len after expire = %d", m.Len())
	}
}

func TestMonitorFeedback(t *testing.T) {
	m := NewMonitor(2.5, 250, nil)
	m.Update(7, Vehicle, geom.V(10, 0), geom.Vec2{}, -60, 0)
	m.RecordSendFailed(7)
	e, _ := observed(m, 7)
	if e.TxFails != 1 {
		t.Fatalf("TxFails = %d", e.TxFails)
	}
	if e.FeedbackProb >= 1 {
		t.Fatalf("FeedbackProb did not drop on failure: %v", e.FeedbackProb)
	}
	after := e.FeedbackProb
	m.RecordReceived(7)
	e, _ = observed(m, 7)
	if e.Received != 1 || e.FeedbackProb <= after {
		t.Fatalf("reception did not recover feedback: %+v", e)
	}
	// unknown links are ignored, not created
	m.RecordSendFailed(99)
	m.RecordReceived(99)
	if m.Has(99) {
		t.Fatal("feedback created a phantom entry")
	}
}

func TestMonitorStateMatchesEqn4(t *testing.T) {
	m := NewMonitor(2.5, 250, nil) // default composite estimator
	pos, vel := geom.V(100, 0), geom.V(-5, 0)
	m.Update(3, Vehicle, pos, vel, -58, 1)
	obs := Observer{Pos: geom.V(0, 0), Vel: geom.V(5, 0), Now: 1.5, Epoch: 4}
	st, ok := m.State(3, obs)
	if !ok {
		t.Fatal("state missing")
	}
	if want := link.LifetimeVec(pos, vel, obs.Pos, obs.Vel, 250); st.Lifetime != want {
		t.Fatalf("Lifetime = %v, want Eqn-4 %v", st.Lifetime, want)
	}
	if want := prob.DefaultReceiptModel().ProbFromRSSI(st.MeanRSSI); st.ReceiptProb != want {
		t.Fatalf("ReceiptProb = %v, want %v", st.ReceiptProb, want)
	}
	if st.Age != 0.5 {
		t.Fatalf("Age = %v", st.Age)
	}
	// raw accessors never carry derived fields
	raw, _ := observed(m, 3)
	if raw.Age != 0 || raw.ReceiptProb != 0 {
		t.Fatalf("raw entry carries derived fields: %+v", raw)
	}
}

func TestMonitorLifetimeMemo(t *testing.T) {
	calls := 0
	m := NewMonitor(2.5, 250, countingEstimator{calls: &calls})
	m.Update(1, Vehicle, geom.V(100, 0), geom.V(-1, 0), -60, 0)

	obs := Observer{Pos: geom.Vec2{}, Vel: geom.V(2, 0), Now: 1, Epoch: 10}
	first, _ := m.State(1, obs)
	again, _ := m.State(1, obs)
	if first.Lifetime != again.Lifetime {
		t.Fatalf("memoized lifetime changed: %v vs %v", first.Lifetime, again.Lifetime)
	}
	// same epoch, same beacons → the kinematic solve ran once
	_, e := m.find(1)
	if e.lifeBeacons != e.beacons || e.lifeEpoch != 10 {
		t.Fatalf("memo not recorded: %+v", e)
	}
	// a new beacon invalidates the memo even within the epoch
	m.Update(1, Vehicle, geom.V(90, 0), geom.V(-1, 0), -60, 1.5)
	refreshed, _ := m.State(1, obs)
	if refreshed.Lifetime == first.Lifetime {
		t.Fatal("beacon refresh did not invalidate the lifetime memo")
	}
	// an epoch advance invalidates it too
	obs2 := obs
	obs2.Epoch = 11
	obs2.Pos = geom.V(10, 0)
	moved, _ := m.State(1, obs2)
	if moved.Lifetime == refreshed.Lifetime {
		t.Fatal("epoch advance did not invalidate the lifetime memo")
	}
}

// countingEstimator passes the kinematic value through and counts calls.
type countingEstimator struct{ calls *int }

func (countingEstimator) Name() string { return "counting" }
func (c countingEstimator) Estimate(ls LinkState, obs Observer, kin float64) Prediction {
	*c.calls++
	return Prediction{Lifetime: kin, ReceiptProb: 1}
}

func TestMonitorSnapshotSorted(t *testing.T) {
	m := NewMonitor(2.5, 250, nil)
	for _, id := range []NodeID{9, 2, 5} {
		m.Update(id, Vehicle, geom.V(float64(id), 0), geom.Vec2{}, -60, 0)
	}
	snap := m.Snapshot()
	states := m.States(Observer{Now: 1})
	if len(snap) != 3 || len(states) != 3 {
		t.Fatalf("lens = %d, %d", len(snap), len(states))
	}
	for i, want := range []NodeID{2, 5, 9} {
		if snap[i].ID != want || states[i].ID != want {
			t.Fatalf("order: snap[%d]=%d states[%d]=%d want %d", i, snap[i].ID, i, states[i].ID, want)
		}
	}
	m.Remove(5)
	if m.Has(5) || m.Len() != 2 {
		t.Fatal("remove failed")
	}
	if _, ok := m.State(5, Observer{}); ok {
		t.Fatal("state of removed link resolved")
	}
}

func TestMonitorOldestBound(t *testing.T) {
	m := NewMonitor(1, 250, nil)
	if gone := m.Expire(100); gone != nil {
		t.Fatalf("empty expire = %v", gone)
	}
	m.Update(1, Vehicle, geom.Vec2{}, geom.Vec2{}, -60, 5)
	if math.IsInf(m.oldest, 1) {
		t.Fatal("oldest bound not lowered by update")
	}
	if gone := m.Expire(5.5); gone != nil {
		t.Fatalf("fresh entry expired: %v", gone)
	}
}

// TestMonitorReset pins the crash-recovery contract: Reset returns the
// monitor to its freshly-constructed state — no entries, no evidence, the
// expiry bound re-armed — while lifetime instrumentation survives. A
// re-learned entry starts from scratch (Beacons == 1, FeedbackProb == 1).
func TestMonitorReset(t *testing.T) {
	m := NewMonitor(2.5, 250, nil)
	m.Update(1, Vehicle, geom.V(10, 0), geom.V(5, 0), -60, 0)
	m.Update(2, Vehicle, geom.V(30, 0), geom.V(5, 0), -65, 0)
	m.Update(1, Vehicle, geom.V(15, 0), geom.V(5, 0), -62, 1)
	m.RecordSendFailed(2)
	m.Expire(4) // walks the table once: both entries are stale
	sweepsBefore := m.FullSweeps()
	if m.Len() != 0 {
		t.Fatalf("len before reset = %d, want 0 after full expiry", m.Len())
	}
	m.Update(1, Vehicle, geom.V(20, 0), geom.V(5, 0), -61, 5)
	m.Reset()
	if m.Len() != 0 || m.Has(1) || m.Has(2) {
		t.Fatalf("reset left entries behind: len=%d", m.Len())
	}
	// the oldest-entry bound is re-armed: an empty table never sweeps,
	// no matter how far time advances
	if m.Expire(1e9); m.FullSweeps() != sweepsBefore {
		t.Fatalf("reset table swept: %d sweeps, want %d", m.FullSweeps(), sweepsBefore)
	}
	// evidence re-accumulates from scratch
	m.Update(1, Vehicle, geom.V(25, 0), geom.V(5, 0), -63, 10)
	if e, _ := observed(m, 1); e.Beacons != 1 || e.FirstSeen != 10 || e.FeedbackProb != 1 {
		t.Fatalf("re-learned entry carries stale evidence: %+v", e)
	}
}
