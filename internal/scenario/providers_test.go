package scenario

import (
	"math/rand"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/roadnet"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("empty scenario registry")
	}
	for _, want := range []string{"highway", "city", "ring", "highway-churn", "city-rush", "emergency", "v2i"} {
		if _, ok := Named(want); !ok {
			t.Errorf("scenario %q not registered (have %v)", want, names)
		}
	}
	descs := Descriptions()
	for _, name := range names {
		if descs[name] == "" {
			t.Errorf("scenario %q has no description", name)
		}
	}
}

func TestUnknownNamedScenario(t *testing.T) {
	opts := quickOpts()
	opts.Scenario = "no-such-scenario"
	if _, err := Build("Greedy", opts); err == nil {
		t.Fatal("unknown scenario name accepted")
	}
}

// TestFacadeMatchesExplicitSpec pins the compatibility contract of the
// provider refactor: the Options facade must produce exactly the run an
// explicitly composed closed-world spec produces.
func TestFacadeMatchesExplicitSpec(t *testing.T) {
	opts := quickOpts()
	viaFacade, err := RunProtocol("AODV", opts)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildSpec("AODV", Spec{
		Topology: HighwayTopology{},
		Traffic:  ClosedTraffic{},
		Workload: CBRWorkload{},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if viaFacade != viaSpec {
		t.Fatalf("facade and explicit spec diverged:\n%+v\n%+v", viaFacade, viaSpec)
	}
}

func runChurn(t *testing.T, opts Options) (metrics.Summary, *Scenario) {
	t.Helper()
	sc, err := Build("Greedy", opts)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return sum, sc
}

// TestOpenWorldChurn checks the ArrivalRate facade: vehicles arrive and
// depart mid-run, the network observes the membership changes, and equal
// seeds replay the identical churn history.
func TestOpenWorldChurn(t *testing.T) {
	opts := quickOpts()
	opts.Vehicles = 20
	opts.Duration = 25
	opts.ArrivalRate = 1.0
	opts.MeanLifetime = 10

	a, scA := runChurn(t, opts)
	if a.Joins == 0 {
		t.Error("no nodes joined under a 1 veh/s arrival rate")
	}
	if a.Leaves == 0 {
		t.Error("no nodes left despite 10 s mean lifetimes in a 25 s run")
	}
	if scA.World.Joins() != a.Joins || scA.World.Leaves() != a.Leaves {
		t.Errorf("world counters %d/%d != summary %d/%d",
			scA.World.Joins(), scA.World.Leaves(), a.Joins, a.Leaves)
	}
	b, _ := runChurn(t, opts)
	if a != b {
		t.Fatalf("equal seeds diverged under churn:\n%+v\n%+v", a, b)
	}
	opts.Seed = 99
	c, _ := runChurn(t, opts)
	if a == c {
		t.Fatal("different seeds produced identical churn runs")
	}
}

// TestCityRushScenario drives the acceptance scenario: a named open-world
// preset whose population ramps through a rush hour, deterministic, with
// joins and leaves mid-run.
func TestCityRushScenario(t *testing.T) {
	opts := quickOpts()
	opts.Scenario = "city-rush"
	opts.Vehicles = 24
	opts.Duration = 30

	a, sc := runChurn(t, opts)
	if a.Joins == 0 || a.Leaves == 0 {
		t.Fatalf("city-rush without churn: joins=%d leaves=%d", a.Joins, a.Leaves)
	}
	if sc.Name != "city-rush/24-veh" {
		t.Errorf("scenario name = %q", sc.Name)
	}
	b, _ := runChurn(t, opts)
	if a != b {
		t.Fatalf("city-rush not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestTraceReplayScenario(t *testing.T) {
	// record a deterministic trace from the synthetic mobility stack
	net, eb, wb, err := roadnet.Highway(1500, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	model := mobility.NewRoadModel(net, rng)
	mobility.Populate(model, rng, mobility.PopulateOptions{
		Count: 12, SpeedMean: 25, SpeedStd: 4,
		Segments: []roadnet.SegmentID{eb, wb},
	})
	tracks := mobility.Record(model, 0.5, 25)

	opts := Options{Seed: 1, Duration: 20, Flows: 2, FlowPackets: 5, Tracks: tracks}
	sc, err := Build("TBP-SS", opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sc.Model.(*mobility.RoadModel); ok {
		t.Error("trace scenario exposed a RoadModel")
	}
	if sc.Net == nil {
		t.Fatal("trace scenario has no envelope network")
	}
	if len(sc.Vehicles) != 12 {
		t.Fatalf("%d vehicle nodes for a 12-track trace", len(sc.Vehicles))
	}
	a, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.DataSent == 0 {
		t.Fatal("trace replay generated no traffic")
	}
	sc2, err := Build("TBP-SS", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("trace replay not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestStaggeredTraceGeneratesTraffic is the regression test for traces
// whose vehicles all depart after t=0 (the shape of real SUMO exports):
// no nodes exist at build time, so flows must be wired over the track
// active windows and resolved as the vehicles join.
func TestStaggeredTraceGeneratesTraffic(t *testing.T) {
	tracks := make([]mobility.Track, 8)
	for i := range tracks {
		start := 1 + float64(i) // nobody exists at t=0
		y := float64(i) * 40
		tracks[i] = mobility.Track{
			ID: mobility.VehicleID(i),
			Waypoints: []mobility.Waypoint{
				{T: start, Pos: geom.V(0, y), Speed: 10},
				{T: start + 25, Pos: geom.V(250, y), Speed: 10},
			},
		}
	}
	opts := Options{Seed: 1, Duration: 25, Flows: 3, FlowPackets: 6, Tracks: tracks}
	sc, err := Build("Flooding", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Vehicles) != 0 {
		t.Fatalf("%d nodes at build time, want 0", len(sc.Vehicles))
	}
	a, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.DataSent == 0 {
		t.Fatal("staggered trace generated no traffic")
	}
	if a.Joins != len(tracks) {
		t.Fatalf("joins = %d, want every track to join mid-run", a.Joins)
	}
	sc2, err := Build("Flooding", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("staggered trace not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestTraceScenarioRejectsEmptyTrace(t *testing.T) {
	opts := quickOpts()
	opts.Tracks = []mobility.Track{{ID: 0}}
	if _, err := Build("Greedy", opts); err == nil {
		t.Fatal("waypoint-less trace accepted")
	}
}

func TestEmergencyBurstWorkload(t *testing.T) {
	opts := quickOpts()
	opts.Scenario = "emergency"
	base := quickOpts()
	sumBurst, err := RunProtocol("Flooding", opts)
	if err != nil {
		t.Fatal(err)
	}
	sumBase, err := RunProtocol("Flooding", base)
	if err != nil {
		t.Fatal(err)
	}
	// the burst rides on top of the CBR background: strictly more traffic
	if sumBurst.DataSent <= sumBase.DataSent {
		t.Fatalf("burst sent %d <= baseline %d", sumBurst.DataSent, sumBase.DataSent)
	}
}

func TestV2IWorkloadPlacesServers(t *testing.T) {
	opts := quickOpts()
	opts.Scenario = "v2i"
	sc, err := Build("Greedy", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.RSUs) != 2 {
		t.Fatalf("v2i placed %d servers, want 2", len(sc.RSUs))
	}
	sum, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.DataSent == 0 {
		t.Fatal("v2i generated no traffic")
	}
}

func TestRushHourProfile(t *testing.T) {
	p := RushHour(1, 5, 50, 25)
	if got := p.Rate(50); got != 5 {
		t.Errorf("rate at peak = %v", got)
	}
	if got := p.Rate(0); got != 1 {
		t.Errorf("rate far before peak = %v", got)
	}
	if got := p.Rate(100); got != 1 {
		t.Errorf("rate far after peak = %v", got)
	}
	mid := p.Rate(37.5)
	if mid <= 1 || mid >= 5 {
		t.Errorf("ramp rate = %v, want strictly between base and peak", mid)
	}
	if p.Peak != 5 {
		t.Errorf("peak = %v", p.Peak)
	}
}
