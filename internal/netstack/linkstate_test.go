package netstack

import (
	"reflect"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/mobility"
)

// TestLinkStateMatchesBeaconKinematics verifies the reliability plane's
// default predictions through the full stack: after beaconing, every
// LinkState carries the Eqn (4) lifetime solved on the beaconed
// kinematics against the node's current ones — the exact value the
// pre-plane routing.LinkLifetime helper computed.
func TestLinkStateMatchesBeaconKinematics(t *testing.T) {
	w, routers, ids := newTestWorld(t, 3, 100)
	if err := w.Run(3); err != nil {
		t.Fatal(err)
	}
	api := routers[1].API
	ls, ok := api.LinkState(ids[0])
	if !ok {
		t.Fatal("link state missing for a live neighbor")
	}
	want := link.LifetimeVec(ls.Pos, ls.Vel, api.Pos(), api.Vel(), api.RangeEstimate())
	if ls.Lifetime != want {
		t.Fatalf("Lifetime = %v, want Eqn-4 %v", ls.Lifetime, want)
	}
	if ls.ReceiptProb <= 0 || ls.ReceiptProb > 1 {
		t.Fatalf("ReceiptProb = %v", ls.ReceiptProb)
	}
	if ls.Age < 0 {
		t.Fatalf("Age = %v", ls.Age)
	}
	// LinkStates mirrors Neighbors: same membership, same order
	states := api.LinkStates()
	nbs := api.Neighbors()
	if len(states) != len(nbs) {
		t.Fatalf("LinkStates len %d, Neighbors len %d", len(states), len(nbs))
	}
	for i := range states {
		if states[i].ID != nbs[i].ID {
			t.Fatalf("order mismatch at %d: %d vs %d", i, states[i].ID, nbs[i].ID)
		}
	}
	if _, ok := api.LinkState(99); ok {
		t.Fatal("link state resolved for an unknown node")
	}
	// the Append reads hand the same entries to the caller's buffer — a
	// stack array in the routers' per-packet loops, which must not escape —
	// for no allocation; the plain reads stay fresh slices
	nbuf, lbuf := api.AppendNeighbors(nil), api.AppendLinkStates(nil)
	if !reflect.DeepEqual(nbuf, nbs) || !reflect.DeepEqual(lbuf, states) || api.NeighborCount() != len(nbs) {
		t.Fatalf("Append reads differ: %+v / %+v, want %+v / %+v", nbuf, lbuf, nbs, states)
	}
	read := 0
	allocs := testing.AllocsPerRun(50, func() {
		var nb [4]Neighbor
		var ls [4]LinkState
		read += len(api.AppendNeighbors(nb[:0])) + len(api.AppendLinkStates(ls[:0]))
	})
	if allocs != 0 || read == 0 {
		t.Fatalf("Append reads into stack arrays: %v allocs per run reading %d entries, want 0 and some", allocs, read)
	}
	nbs[0].ID, states[0].ID = 99, 99
	if api.Neighbors()[0].ID == 99 || api.LinkStates()[0].ID == 99 {
		t.Fatal("a returned slice aliases the table or a later read")
	}
}

// listeningChurnRouter is churnRouter with the beacon hook.
type listeningChurnRouter struct {
	churnRouter
	heard int
}

func (r *listeningChurnRouter) OnBeacon(NodeID, NodeKind) { r.heard++ }

// TestBeaconListenerIsInvisible runs one world with routers that listen
// for beacons and one with routers that do not: the listener is told of
// every reception, and nothing else about the run differs.
func TestBeaconListenerIsInvisible(t *testing.T) {
	run := func(factory RouterFactory) uint64 {
		w := NewWorld(Config{Seed: 31}, mobility.NewPlayback(parallelTracks(4, 30)))
		ids := w.AddVehicleNodes(factory)
		w.AddFlow(ids[0], ids[3], 1, 0.5, 8, 256)
		if err := w.Run(6); err != nil {
			t.Fatal(err)
		}
		return w.Digest()
	}
	var listeners []*listeningChurnRouter
	listening := run(func() Router {
		r := &listeningChurnRouter{churnRouter: churnRouter{seen: make(map[uint64]bool)}}
		listeners = append(listeners, r)
		return r
	})
	if deaf := run(newChurnRouter); listening != deaf {
		t.Fatalf("world digest %x with beacon listeners, %x without", listening, deaf)
	}
	for i, r := range listeners {
		if r.heard < 3*5 { // three neighbours, a beacon a second each
			t.Errorf("listener %d was told of %d beacons in 6 s, want at least 15", i, r.heard)
		}
	}
}

// TestSendFailureFeedsMonitor verifies the MAC ARQ failure upcall lands in
// the reliability plane before the router reacts: two nodes in range, the
// peer is failure-injected mid-run, so unicasts to it exhaust ARQ.
func TestSendFailureFeedsMonitor(t *testing.T) {
	w, routers, ids := newTestWorld(t, 2, 50)
	w.Engine().At(1.9, func() { w.setActive(w.nodeByID(ids[1]), false) })
	w.Engine().At(2.0, func() { routers[0].Originate(ids[1], 256) })
	// sample before the silenced peer's entry expires (TTL 2.5 s)
	var ls LinkState
	var found bool
	w.Engine().At(2.4, func() { ls, found = routers[0].API.LinkState(ids[1]) })
	if err := w.Run(4); err != nil {
		t.Fatal(err)
	}
	if len(routers[0].failures) == 0 {
		t.Fatal("OnSendFailed never fired")
	}
	// the router's Base.OnSendFailed is a no-op (no ForgetNeighbor), so
	// the monitor entry survives with the failure recorded
	if !found {
		t.Fatal("entry gone before its TTL")
	}
	if ls.TxFails == 0 {
		t.Fatalf("TxFails = 0 after ARQ exhaustion: %+v", ls)
	}
	if ls.FeedbackProb >= 1 {
		t.Fatalf("FeedbackProb = %v, want < 1 after failures", ls.FeedbackProb)
	}
}

// TestReceptionFeedsMonitor verifies decoded data frames count as
// positive link evidence at the receiver.
func TestReceptionFeedsMonitor(t *testing.T) {
	w, routers, ids := newTestWorld(t, 2, 50)
	w.Engine().At(2.0, func() { routers[0].Originate(ids[1], 256) })
	if err := w.Run(4); err != nil {
		t.Fatal(err)
	}
	ls, ok := routers[1].API.LinkState(ids[0])
	if !ok {
		t.Fatal("entry missing")
	}
	if ls.Received == 0 {
		t.Fatalf("Received = 0 after a delivered data frame: %+v", ls)
	}
}

// TestLinkAuditObservesBreaks drives two nodes apart and checks the audit
// resolves its prediction samples against the geometric break.
func TestLinkAuditObservesBreaks(t *testing.T) {
	// b crosses out of a's 250 m range at t ≈ (250−100)/40 = 3.75 s
	a := mobility.Track{ID: 0, Waypoints: []mobility.Waypoint{
		{T: 0, Pos: geom.V(0, 0), Speed: 0},
		{T: 1000, Pos: geom.V(0, 0), Speed: 0},
	}}
	b := mobility.Track{ID: 1, Waypoints: []mobility.Waypoint{
		{T: 0, Pos: geom.V(100, 0), Speed: 40},
		{T: 1000, Pos: geom.V(100+40*1000, 0), Speed: 40},
	}}
	w := NewWorld(Config{Seed: 1}, mobility.NewPlayback([]mobility.Track{a, b}))
	var routers []*echoRouter
	w.AddVehicleNodes(func() Router {
		r := &echoRouter{}
		routers = append(routers, r)
		return r
	})
	w.EnableLinkAudit(30)
	if err := w.Run(10); err != nil {
		t.Fatal(err)
	}
	col := w.Collector()
	if col.LinkSamples == 0 {
		t.Fatal("audit resolved no samples")
	}
	// both directed samples of the one link must have resolved: nothing
	// stays open once the pair separates
	if col.LinkCensored != 0 {
		t.Fatalf("censored = %d, want 0 (the only link broke mid-run)", col.LinkCensored)
	}
	// the link objectively lived ~3.75 s from t=0; with constant
	// velocities the kinematic default predicts it to within the beacon
	// staleness, so MAE must be well under a second
	if mae := col.LinkMAE(); mae <= 0 || mae > 1 {
		t.Fatalf("MAE = %v, want (0, 1]", mae)
	}
	total := 0
	for _, b := range col.LinkCalibration() {
		total += b.N
	}
	if total != col.LinkSamples {
		t.Fatalf("calibration buckets hold %d samples, collector %d", total, col.LinkSamples)
	}
}

// TestLinkAuditDeterministic pins the audit's determinism: two identical
// runs must produce identical summaries, including the float MAE/bias
// accumulations (sample open/close order is node-ID ordered, never map
// ordered).
func TestLinkAuditDeterministic(t *testing.T) {
	run := func() metrics.Summary {
		model := mobility.NewPlayback(lineTracks(8, 120, 10))
		w := NewWorld(Config{Seed: 9}, model)
		var routers []*echoRouter
		w.AddVehicleNodes(func() Router {
			r := &echoRouter{}
			routers = append(routers, r)
			return r
		})
		w.EnableLinkAudit(5)
		if err := w.Run(12); err != nil {
			t.Fatal(err)
		}
		return w.Collector().Summarize("echo", "audit")
	}
	s1, s2 := run(), run()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("audit summaries diverged:\n%+v\n%+v", s1, s2)
	}
	if s1.LinkSamples == 0 {
		t.Fatal("no samples resolved")
	}
}
