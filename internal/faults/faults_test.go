// Package faults_test exercises the fault engine from outside: directly
// against hand-built worlds (event semantics, RNG draw order) and through
// the scenario layer (profile wiring). It is an external
// test package because the scenario package imports faults.
package faults_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/faults"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/scenario"
)

// floodRouter rebroadcasts each data packet once — enough to deliver over
// one or two hops without any protocol machinery.
type floodRouter struct {
	netstack.Base
	seen map[uint64]bool
}

func (r *floodRouter) Name() string { return "flood-test" }

func (r *floodRouter) Originate(dst netstack.NodeID, size int) {
	pkt := &netstack.Packet{
		UID: r.API.NewUID(), Kind: netstack.KindData, Data: true, Proto: "flood-test",
		Src: r.API.Self(), Dst: dst, TTL: 4, Size: size, Created: r.API.Now(),
	}
	r.API.Send(netstack.Broadcast, pkt)
}

func (r *floodRouter) HandlePacket(pkt *netstack.Packet) {
	if r.seen[pkt.UID] {
		r.API.Release(pkt)
		return
	}
	r.seen[pkt.UID] = true
	if pkt.Dst == r.API.Self() {
		r.API.Deliver(pkt)
		return
	}
	pkt.TTL--
	if !pkt.Expired() {
		r.API.Send(netstack.Broadcast, pkt)
	}
}

// staticPair builds a world with two stationary vehicles 100 m apart
// (inside radio range) and returns it with the routers in node order.
func staticPair(seed int64, dur float64) (*netstack.World, []netstack.NodeID, []*floodRouter) {
	tracks := []mobility.Track{
		{ID: 0, Waypoints: []mobility.Waypoint{
			{T: 0, Pos: geom.V(100, 0)}, {T: dur, Pos: geom.V(100, 0)}}},
		{ID: 1, Waypoints: []mobility.Waypoint{
			{T: 0, Pos: geom.V(200, 0)}, {T: dur, Pos: geom.V(200, 0)}}},
	}
	w := netstack.NewWorld(netstack.Config{Seed: seed}, mobility.NewPlayback(tracks))
	var routers []*floodRouter
	ids := w.AddVehicleNodes(func() netstack.Router {
		r := &floodRouter{seen: make(map[uint64]bool)}
		routers = append(routers, r)
		return r
	})
	return w, ids, routers
}

// TestPartitionSeversCrossingLinks pins the hard-cut semantics: a link
// whose endpoints straddle the cut delivers nothing during the window —
// with no RNG draw, so a severed frame cannot perturb any random stream —
// and works again the instant the window closes.
func TestPartitionSeversCrossingLinks(t *testing.T) {
	w, ids, routers := staticPair(31, 10)
	eng, err := faults.Install(w, faults.Spec{Events: []faults.Event{
		{Kind: faults.Partition, At: 2, Until: 6, CutX: 150},
	}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	w.Engine().At(3, func() { routers[0].Originate(ids[1], 256) })
	w.Engine().At(5.9, func() {
		if got := w.Collector().DataDelivered; got != 0 {
			t.Errorf("delivered %d packets across an active partition", got)
		}
	})
	w.Engine().At(8, func() { routers[0].Originate(ids[1], 256) })
	if err := w.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := w.Collector().DataDelivered; got != 1 {
		t.Errorf("delivered = %d, want 1 (only the post-window packet)", got)
	}
	if eng.InWindow(1.99) || !eng.InWindow(2) || !eng.InWindow(5.99) || eng.InWindow(6) {
		t.Error("InWindow does not match the [2, 6) partition window")
	}
}

// jamDelivered runs the static pair under a JamZone covering the receiver
// and returns how many of the n packets sent inside the window got through.
func jamDelivered(t *testing.T, seed int64, loss float64, n int) int {
	t.Helper()
	w, ids, routers := staticPair(seed, 20)
	_, err := faults.Install(w, faults.Spec{Events: []faults.Event{
		{Kind: faults.JamZone, At: 2, Until: 18, Loss: loss,
			Region: geom.NewRect(geom.V(150, -50), geom.V(250, 50))},
	}}, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		at := 3 + float64(i)
		w.Engine().At(at, func() { routers[0].Originate(ids[1], 128) })
	}
	if err := w.Run(20); err != nil {
		t.Fatal(err)
	}
	return w.Collector().DataDelivered
}

// TestJamZoneLossIsSeededAndEffective pins the jam semantics: total loss
// (p >= 1) drops everything without drawing randomness, partial loss kills
// a seed-determined strict subset, and the same seed reproduces the exact
// count — the draw order (one uniform per candidate, after the channel
// draw) is part of the determinism contract.
func TestJamZoneLossIsSeededAndEffective(t *testing.T) {
	const n = 12
	if got := jamDelivered(t, 41, 1.0, n); got != 0 {
		t.Errorf("total jam delivered %d packets, want 0", got)
	}
	got := jamDelivered(t, 41, 0.5, n)
	if got == 0 || got == n {
		t.Errorf("half jam delivered %d/%d, want a strict subset", got, n)
	}
	if again := jamDelivered(t, 41, 0.5, n); again != got {
		t.Errorf("same seed delivered %d then %d — jam draws are not deterministic", got, again)
	}
}

// TestWindowsMerge pins the degradation-accounting windows: overlapping
// fault events coalesce into one [From, To) interval.
func TestWindowsMerge(t *testing.T) {
	w, _, _ := staticPair(51, 10)
	eng, err := faults.Install(w, faults.Spec{Events: []faults.Event{
		{Kind: faults.JamZone, At: 2, Until: 6, Loss: 0.5,
			Region: geom.NewRect(geom.V(0, -50), geom.V(300, 50))},
		{Kind: faults.BeaconSuppression, At: 5, Until: 9, Prob: 0.5},
	}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []float64{1.99, 2, 5.5, 6, 8.99, 9} {
		if got, want := eng.InWindow(at), at >= 2 && at < 9; got != want {
			t.Errorf("InWindow(%v) = %v, want %v: the events merge into [2, 9)", at, got, want)
		}
	}
}

// TestRSUBlackoutCrashesEveryRSU drives the profile through the scenario
// layer: a DRR run with three RSUs under rsu-blackout must record exactly
// three crashes and no recoveries.
func TestRSUBlackoutCrashesEveryRSU(t *testing.T) {
	sum, err := scenario.RunProtocol("DRR", scenario.Options{
		Seed: 2, Vehicles: 12, HighwayLength: 3000, SpeedMean: 30,
		Duration: 30, Flows: 2, FlowPackets: 5, RSUs: 3,
		Faults: "rsu-blackout",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Crashes != 3 || sum.Recoveries != 0 {
		t.Errorf("crashes/recoveries = %d/%d, want 3/0", sum.Crashes, sum.Recoveries)
	}
}

// TestUnknownProfileIsRejected: a typo in Options.Faults must fail the
// build with the known names, not silently run fault-free.
func TestUnknownProfileIsRejected(t *testing.T) {
	_, err := scenario.Build("Greedy", scenario.Options{Faults: "no-such-profile"})
	if err == nil {
		t.Fatal("unknown fault profile accepted")
	}
}
