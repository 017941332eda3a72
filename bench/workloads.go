package main

import (
	"fmt"
	"math/rand"

	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/scenario"
)

// scale sizes every workload. full is what BENCHMARK.json gates; quick is
// the same shapes small enough for the package's tests.
type scale struct {
	hwyVehicles  int
	hwyLength    float64
	cityVehicles int
	cityGridN    int
	cityArrivals float64
	duration     float64 // macro worlds, sim-s
	warmUp       float64
	flows        int
	packets      int
	campSeeds    int
	campDuration float64
	minReps      int // timed repetitions a pass never goes below
}

var (
	full = scale{
		hwyVehicles: 5000, hwyLength: 100000,
		cityVehicles: 1500, cityGridN: 10, cityArrivals: 25,
		duration: 20, warmUp: 5, flows: 50, packets: 20,
		campSeeds: 2, campDuration: 60, minReps: 3,
	}
	// quick keeps the physical density (50 veh/km) and lets every flow
	// finish inside the 5 sim-s run.
	quick = scale{
		hwyVehicles: 300, hwyLength: 6000,
		cityVehicles: 150, cityGridN: 4, cityArrivals: 5,
		duration: 5, warmUp: 0.5, flows: 10, packets: 4,
		campSeeds: 1, campDuration: 5, minReps: 1,
	}
)

// runSpec is one simulation of a workload: everything scenario.BuildSpec
// needs. flows is the LocalFlows band; a zero band means the default CBR
// workload of scenario.Build.
type runSpec struct {
	protocol string
	opts     scenario.Options
	traffic  scenario.Traffic
	flows    LocalFlows
}

// build assembles the run. variant r0/r1 swap in the ladder's reduced
// worlds (see ladder.go); shards overrides Options.Shards when positive.
func (r runSpec) build(v variant, shards int) (*scenario.Scenario, *LocalFlows, error) {
	spec := scenario.Spec{Traffic: r.traffic}
	proto := r.protocol
	var lf *LocalFlows
	switch {
	case v != rungFull:
		spec.Workload = noTraffic{}
		if v == rungTick {
			proto = "Flooding"
		}
	case r.flows.Max > 0:
		lf = &LocalFlows{Min: r.flows.Min, Max: r.flows.Max}
		spec.Workload = lf
	}
	opts := r.opts
	if shards > 0 {
		opts.Shards = shards
	}
	sc, err := scenario.BuildSpec(proto, spec, opts)
	return sc, lf, err
}

// variant selects a rung of the plane ladder.
type variant int

const (
	rungFull   variant = iota // the workload as specified
	rungTick                  // Flooding + no traffic: no beacons, no data
	rungBeacon                // the workload's protocol + no traffic: beacons only
)

// noTraffic is the empty scenario.Workload of ladder rungs r0 and r1.
type noTraffic struct{}

func (noTraffic) Install(*scenario.Scenario, *rand.Rand) {}

// LocalFlows is the benchmark's scenario.Workload: Options.Flows CBR flows
// whose endpoints are between Min and Max metres apart at t=0, so packets
// can be delivered at any world size (world-spanning flows give PDR 0 on a
// 100 km highway). src is uniform over vehicles, dst uniform over the
// vehicles in src's band; draws come from the Seed+7 stream BuildSpec
// hands in. Picked records the chosen pairs for the distance check.
type LocalFlows struct {
	Min, Max float64
	Picked   []flowPick
}

type flowPick struct {
	Src, Dst netstack.NodeID
	Dist     float64
}

// Install implements scenario.Workload.
func (w *LocalFlows) Install(sc *scenario.Scenario, rng *rand.Rand) {
	n := len(sc.Vehicles)
	if n < 2 {
		return
	}
	var band []netstack.NodeID
	for f := 0; f < sc.Opts.Flows; f++ {
		// a vehicle with nobody in its band (an isolated car) is redrawn;
		// the bound only stops a world with no valid pair from spinning
		for try := 0; try < 64; try++ {
			src := sc.Vehicles[rng.Intn(n)]
			sp, _ := sc.World.PositionOf(src)
			band = band[:0]
			for _, v := range sc.Vehicles {
				if v == src {
					continue
				}
				vp, _ := sc.World.PositionOf(v)
				if d := sp.Dist(vp); d >= w.Min && d <= w.Max {
					band = append(band, v)
				}
			}
			if len(band) == 0 {
				continue
			}
			dst := band[rng.Intn(len(band))]
			dp, _ := sc.World.PositionOf(dst)
			start := sc.Opts.WarmUp + rng.Float64()*2
			sc.World.AddFlow(src, dst, start, sc.Opts.FlowInterval, sc.Opts.FlowPackets, sc.Opts.PacketSize)
			w.Picked = append(w.Picked, flowPick{Src: src, Dst: dst, Dist: sp.Dist(dp)})
			break
		}
	}
}

// workload is one row of the benchmark.
type workload struct {
	name string
	// pdrFloor is the delivery ratio below which the run counts as failed.
	pdrFloor float64
	// closed worlds originate exactly flows × packets data packets.
	closed bool
	// campaign workloads go through runner.Pool; the others are one
	// scenario built with BuildSpec and run directly.
	campaign bool
	// worlds > 1 replicates the workload over that many derived seeds, one
	// repetition each: what a ticket-probing world costs swings with the seed
	// (±25 % on the city grid; 0.6–2.9 s for the campaign's 20 protocols on
	// one 60-vehicle world), and one world per pass would carry that swing
	// into every metric.
	worlds int
	runs   func(seed int64, sc scale) []runSpec
}

// worldRuns is the workload's run list for one of its replicated worlds.
func (w *workload) worldRuns(seed int64, world int, sc scale) []runSpec {
	return w.runs(seed+int64(world)*worldStride, sc)
}

// worldStride keeps the derived seeds of neighbouring --seed values apart.
const worldStride = 1_000_003

// simSeconds is the simulated time one repetition covers.
func simSeconds(runs []runSpec) float64 {
	var t float64
	for _, r := range runs {
		t += r.opts.Duration
	}
	return t
}

func highway(protocol string) func(int64, scale) []runSpec {
	return func(seed int64, sc scale) []runSpec {
		return []runSpec{{
			protocol: protocol,
			opts: scenario.Options{
				Seed: seed, Kind: scenario.HighwayKind,
				Vehicles: sc.hwyVehicles, HighwayLength: sc.hwyLength, LanesPerDirection: 2,
				Range: 250, Duration: sc.duration, WarmUp: sc.warmUp,
				Flows: sc.flows, FlowPackets: sc.packets, FlowInterval: 0.5, PacketSize: 512,
				Shards: 1,
			},
			flows: LocalFlows{Min: 300, Max: 1500},
		}}
	}
}

func cityProbe(seed int64, sc scale) []runSpec {
	return []runSpec{{
		protocol: "TBP-SS",
		opts: scenario.Options{
			Seed: seed, Kind: scenario.CityKind, GridN: sc.cityGridN,
			Vehicles: sc.cityVehicles, Shadowing: true, Range: 250,
			Duration: sc.duration, WarmUp: sc.warmUp,
			Flows: sc.flows, FlowPackets: sc.packets, FlowInterval: 0.5, PacketSize: 512,
			Shards: 1,
		},
		traffic: scenario.OpenTraffic{
			Initial:      sc.cityVehicles,
			Arrivals:     scenario.ConstantRate(sc.cityArrivals),
			MeanLifetime: 60,
		},
		flows: LocalFlows{Min: 300, Max: 1000},
	}}
}

// protocolOpts is the default-options run of one protocol, as the
// reproduction's tables and figures use it.
func protocolOpts(protocol string, seed int64, duration float64) runSpec {
	o := scenario.Options{Seed: seed, Duration: duration, Shards: 1}
	if duration < 10 {
		o.WarmUp = duration / 10 // quick scale: let flows start inside the run
	}
	if protocol == "Bus" {
		o.Buses = 3
	}
	return runSpec{protocol: protocol, opts: o}
}

func paperCampaign(seed int64, sc scale) []runSpec {
	var out []runSpec
	for _, p := range scenario.Protocols() {
		for s := 0; s < sc.campSeeds; s++ {
			out = append(out, protocolOpts(p, seed+int64(s), sc.campDuration))
		}
	}
	return out
}

var workloads = []workload{
	{name: "hwy-beacon", pdrFloor: 0.9, closed: true, runs: highway("Greedy")},
	{name: "hwy-flood", pdrFloor: 0.9, closed: true, runs: highway("Flooding")},
	{name: "city-probe", pdrFloor: 0.3, worlds: 4, runs: cityProbe},
	{name: "paper-campaign", pdrFloor: 0.5, campaign: true, worlds: 4, runs: paperCampaign},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
