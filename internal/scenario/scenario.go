// Package scenario assembles complete simulation runs from three
// composable providers — a Topology (the road network), a Traffic source
// (the vehicle population: closed-world scatter, open-world churn, or
// trace playback), and a Workload (the application flows) — plus one
// routing protocol instantiated on every node. Every experiment in the
// harness is a grid of scenarios built here, so protocol categories are
// compared on identical worlds, seeds, and flows.
//
// Scenarios come in three flavours:
//
//   - Options-driven: Build(protocol, Options{...}) composes the classic
//     closed-world scenario the paper evaluates (the Options struct is a
//     thin facade over the providers; equal options remain byte-identical
//     to the pre-provider builder).
//   - Named: Options.Scenario selects one of the package's presets
//     ("city-rush", "highway-churn", ...); see Names.
//   - Trace-driven: Options.TracePath (or Options.Tracks) replays a SUMO
//     FCD trace through a playback mobility model with open-world
//     membership — vehicles join the world when their trace begins and
//     leave when it ends.
//
// Options sizes every provider. A provider's own fields are only those a
// preset or a caller sets; every other parameter of a topology, traffic
// source or workload (the ring's sides, the open world's population cap,
// the burst's sources and fan-out, the V2I server count) is a constant.
package scenario

import (
	"fmt"

	"github.com/vanetlab/relroute/internal/core"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/prob"
	"github.com/vanetlab/relroute/internal/roadnet"
	"github.com/vanetlab/relroute/internal/routing/abedi"
	"github.com/vanetlab/relroute/internal/routing/aodv"
	"github.com/vanetlab/relroute/internal/routing/busferry"
	"github.com/vanetlab/relroute/internal/routing/car"
	"github.com/vanetlab/relroute/internal/routing/dsdv"
	"github.com/vanetlab/relroute/internal/routing/dsr"
	"github.com/vanetlab/relroute/internal/routing/flood"
	"github.com/vanetlab/relroute/internal/routing/gateway"
	"github.com/vanetlab/relroute/internal/routing/greedy"
	"github.com/vanetlab/relroute/internal/routing/gvgrid"
	"github.com/vanetlab/relroute/internal/routing/hybrid"
	"github.com/vanetlab/relroute/internal/routing/niude"
	"github.com/vanetlab/relroute/internal/routing/pbr"
	"github.com/vanetlab/relroute/internal/routing/rear"
	"github.com/vanetlab/relroute/internal/routing/rsu"
	"github.com/vanetlab/relroute/internal/routing/taleb"
	"github.com/vanetlab/relroute/internal/routing/zone"
	"github.com/vanetlab/relroute/internal/traces"
)

// Protocols lists every runnable protocol name accepted by Build, in the
// order the campaigns and the harness expand runs.
func Protocols() []string {
	names := make([]string, len(protocols))
	for i, p := range protocols {
		names[i] = p.name
	}
	return names
}

// protocols is the one table of runnable protocols: Protocols lists its
// names and protocolFactory builds from its entries.
var protocols = []struct {
	name  string
	build routers
}{
	{"Flooding", fixed(flood.New)},
	{"Biswas", fixed(flood.NewBiswas)},
	{"AODV", fixed(aodv.New)},
	{"DSDV", fixed(dsdv.New)},
	{"DSR", fixed(dsr.New)},
	{"PBR", fixed(pbr.New)},
	{"Taleb", fixed(taleb.New)},
	{"Abedi", fixed(abedi.New)},
	{"DRR", (*Scenario).drrRouters},
	{"Bus", fixed(busferry.New)},
	{"Greedy", fixed(greedy.New)},
	{"Zone", fixed(zone.New)},
	{"LORA-DCBF", fixed(gateway.New)},
	{"REAR", fixed(rear.New)},
	{"CAR", (*Scenario).carRouters},
	{"GVGrid", fixed(gvgrid.New)},
	{"Yan-TBP", tickets(core.MetricExpectedDuration)},
	{"TBP-SS", tickets(core.MetricMeanDuration)},
	{"NiuDe", fixed(niude.New)},
	{"Hybrid", func(s *Scenario) (netstack.RouterFactory, func(*Scenario)) {
		return hybrid.New(s.Opts.TicketBudget), nil
	}},
}

// Kind selects the world topology.
type Kind int

const (
	// HighwayKind is a straight bidirectional multi-lane highway.
	HighwayKind Kind = iota + 1
	// CityKind is a Manhattan street grid.
	CityKind
	// RingKind is a closed loop that holds density constant indefinitely.
	RingKind
)

// Options parameterise a scenario. Zero values take the defaults noted on
// each field. Options is the compatibility facade over the provider API:
// Build translates it into a Spec (topology, traffic source, workload),
// and the translation of any pre-provider option set is draw-for-draw
// identical to the old monolithic builder.
type Options struct {
	// Seed drives everything; equal seeds give byte-identical runs.
	Seed int64
	// Kind of topology (default HighwayKind).
	Kind Kind
	// Scenario selects a named preset from the registry (see Names) and
	// overrides Kind; presets still honor the numeric options below.
	Scenario string
	// TracePath replays the SUMO FCD trace at this path instead of
	// synthetic mobility (overrides Kind and Scenario). Vehicles enter
	// the world when their trace begins and leave when it ends.
	TracePath string
	// Tracks replays in-memory trajectories; used when TracePath is
	// empty. The slice is treated as read-only.
	Tracks []mobility.Track
	// ArrivalRate opens the world: a Poisson process spawning this many
	// vehicles per second, with nodes joining the network mid-run. Zero
	// keeps the classic fixed population.
	ArrivalRate float64
	// MeanLifetime is the mean exponential lifetime in seconds assigned
	// to vehicles in open-world runs; expired vehicles despawn and their
	// nodes leave. A positive value opens the world even when
	// ArrivalRate is zero (departures without arrivals); zero keeps
	// vehicles until the run ends.
	MeanLifetime float64
	// Vehicles to scatter (default 60).
	Vehicles int
	// HighwayLength in meters for highway/ring topologies (default 2000).
	HighwayLength float64
	// LanesPerDirection for highway topologies (default 2).
	LanesPerDirection int
	// GridN is the junction count per side for city topologies
	// (default 4) with 400 m blocks.
	GridN int
	// SpeedMean and SpeedStd parameterise desired speeds in m/s
	// (defaults 30 and 6 — heterogeneous highway traffic). A negative
	// SpeedStd means zero spread: every vehicle wants SpeedMean.
	SpeedMean, SpeedStd float64
	// Range is the unit-disk radio range in meters, or with Shadowing the
	// median range the log-normal channel is calibrated to (default 250).
	Range float64
	// Estimator selects the reliability plane's link-quality estimator by
	// registry name ("kinematic", "receipt", "rssi", "composite"; see
	// linkstate.Names). Empty means the composite default, whose
	// predictions match the pre-plane protocol behaviour exactly.
	Estimator string
	// Shadowing switches the default channel to log-normal shadowing.
	Shadowing bool
	// RSUs places this many road-side units evenly along the topology.
	// Zero means "protocol default" (2 for DRR, none otherwise); −1 means
	// explicitly none even for DRR (the Fig. 5 baseline).
	RSUs int
	// Buses adds this many ferry buses looping the topology (default 0;
	// Bus protocol requires ≥ 1).
	Buses int
	// Flows is the number of CBR flows between random vehicle pairs
	// (default 4).
	Flows int
	// FlowPackets per flow (default 30).
	FlowPackets int
	// FlowInterval seconds between packets (default 0.5).
	FlowInterval float64
	// PacketSize in bytes (default 512).
	PacketSize int
	// Duration of the run in seconds (default 60).
	Duration float64
	// WarmUp delays the first flow packet (default 5 s) so beacons and
	// proactive tables converge.
	WarmUp float64
	// TicketBudget overrides the ticket count of Yan-TBP, TBP-SS and Hybrid
	// (default 3).
	TicketBudget int
	// Shards is accepted and ignored: intra-run sharding was measured
	// slower than the serial step loop and deleted. The field survives
	// only because bench/ sets it and old journals and snapshots carry
	// it; ROADMAP item 5's benchmark PR removes it.
	Shards int
	// Faults installs the named chaos profile from the fault-plane
	// registry (see faults.Names): a deterministic, seeded schedule of
	// crashes, blackouts, jamming, beacon suppression, or partitions.
	// Empty means no fault injection; fault-free runs draw nothing from
	// the fault stream and stay byte-identical to pre-fault-plane runs.
	Faults string
}

func (o *Options) setDefaults() {
	if o.Kind == 0 {
		o.Kind = HighwayKind
	}
	if o.Vehicles <= 0 {
		o.Vehicles = 60
	}
	if o.HighwayLength <= 0 {
		o.HighwayLength = 2000
	}
	if o.LanesPerDirection <= 0 {
		o.LanesPerDirection = 2
	}
	if o.GridN <= 0 {
		o.GridN = 4
	}
	if o.SpeedMean <= 0 {
		o.SpeedMean = 30
	}
	if o.SpeedStd == 0 {
		o.SpeedStd = 6
	}
	if o.Range <= 0 {
		o.Range = 250
	}
	if o.Flows <= 0 {
		o.Flows = 4
	}
	if o.FlowPackets <= 0 {
		o.FlowPackets = 30
	}
	if o.FlowInterval <= 0 {
		o.FlowInterval = 0.5
	}
	if o.PacketSize <= 0 {
		o.PacketSize = 512
	}
	if o.Duration <= 0 {
		o.Duration = 60
	}
	if o.WarmUp <= 0 {
		o.WarmUp = 5
	}
	if o.TicketBudget <= 0 {
		o.TicketBudget = 3
	}
}

// spread is the standard deviation of desired speeds: SpeedStd, with a
// negative value meaning zero. SpeedStd itself keeps the sign, so the
// options a Scenario carries rebuild the same run.
func (o *Options) spread() float64 { return max(o.SpeedStd, 0) }

// Scenario is an assembled, not-yet-run simulation.
type Scenario struct {
	Name     string
	Protocol string
	World    *netstack.World
	Net      *roadnet.Network
	// Model is the mobility model driving the run.
	Model mobility.Model
	// Segments are the topology's traffic segments (nil means all).
	Segments []roadnet.SegmentID
	// Tracks are the replayed trajectories of a trace scenario (nil
	// otherwise); workloads use their active windows to wire flows
	// between vehicles that only join mid-run.
	Tracks   []mobility.Track
	Vehicles []netstack.NodeID
	RSUs     []netstack.NodeID
	Opts     Options

	// factory builds one router per node — workloads and open-world
	// traffic sources use it for servers and mid-run joiners.
	factory netstack.RouterFactory
}

// Build assembles a scenario running the named protocol, translating the
// options into providers: a trace (TracePath/Tracks) wins over a named
// preset (Scenario), which wins over the Kind-selected closed world; a
// positive ArrivalRate opens the Kind-selected world.
func Build(protocol string, opts Options) (*Scenario, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.setDefaults()
	spec, opts, err := specFromOptions(opts)
	if err != nil {
		return nil, err
	}
	return buildSpec(protocol, spec, opts, nil)
}

// specFromOptions resolves the facade options into a provider spec (and
// possibly adjusted options, e.g. the trace's vehicle count).
func specFromOptions(opts Options) (Spec, Options, error) {
	tracks := opts.Tracks
	if opts.TracePath != "" {
		var err error
		tracks, err = traces.ReadFile(opts.TracePath)
		if err != nil {
			return Spec{}, opts, fmt.Errorf("scenario: %w", err)
		}
	}
	if len(tracks) > 0 {
		opts.Vehicles = len(tracks)
		return Spec{
			Name:     "trace",
			Topology: TraceTopology{Tracks: tracks},
			Traffic:  TraceTraffic{Tracks: tracks},
		}, opts, nil
	}
	if opts.Scenario != "" {
		def, ok := Named(opts.Scenario)
		if !ok {
			return Spec{}, opts, fmt.Errorf("scenario: unknown scenario %q (known: %v)", opts.Scenario, Names())
		}
		return def.Build(opts), opts, nil
	}
	var spec Spec // zero value: Kind-selected topology, closed traffic, CBR
	if opts.ArrivalRate > 0 || opts.MeanLifetime > 0 {
		// either knob opens the world: arrivals without departures grows
		// the population, departures without arrivals (ArrivalRate 0)
		// drains it
		spec.Traffic = OpenTraffic{
			Initial:      opts.Vehicles,
			Arrivals:     ConstantRate(opts.ArrivalRate),
			MeanLifetime: opts.MeanLifetime,
		}
	}
	return spec, opts, nil
}

// channelReceiptFor tunes the shadowing model so its median range is close
// to the requested unit-disk range.
func channelReceiptFor(r float64) prob.ReceiptModel {
	m := prob.DefaultReceiptModel()
	// adjust the receiver threshold so that MedianRange ≈ r
	lo, hi := -120.0, -40.0
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		m.RxThreshDBm = mid
		if m.MedianRange() > r {
			lo = mid
		} else {
			hi = mid
		}
	}
	return m
}

// routers builds a protocol's vehicle router factory and, for DRR alone,
// the installer of its RSUs, which Build runs once the vehicles are placed.
type routers func(s *Scenario) (netstack.RouterFactory, func(*Scenario))

// fixed is the entry of a protocol whose routers need nothing of the
// scenario.
func fixed(newFactory func() netstack.RouterFactory) routers {
	return func(*Scenario) (netstack.RouterFactory, func(*Scenario)) { return newFactory(), nil }
}

// tickets is the entry of a ticket router ranking links by metric.
func tickets(metric core.Metric) routers {
	return func(s *Scenario) (netstack.RouterFactory, func(*Scenario)) {
		return core.NewTicketRouter(core.WithMetric(metric), core.WithTickets(s.Opts.TicketBudget)), nil
	}
}

// protocolFactory resolves a protocol name to a vehicle router factory and
// an optional static-node installer (DRR's RSUs).
func (s *Scenario) protocolFactory(name string) (netstack.RouterFactory, func(*Scenario), error) {
	for _, p := range protocols {
		if p.name == name {
			factory, static := p.build(s)
			return factory, static, nil
		}
	}
	return nil, nil, fmt.Errorf("scenario: unknown protocol %q (known: %v)", name, Protocols())
}

// drrRouters places RSUs (two unless Options asks for a number) joined by
// one backbone; vehicles run DRR's vehicle router.
func (s *Scenario) drrRouters() (netstack.RouterFactory, func(*Scenario)) {
	if s.Opts.RSUs == 0 {
		s.Opts.RSUs = 2
	}
	backbone := rsu.NewBackbone()
	return rsu.NewVehicle(), func(sc *Scenario) {
		if sc.Opts.RSUs <= 0 {
			return
		}
		for _, p := range rsuPositions(sc.Net, sc.Opts.RSUs) {
			id := sc.World.AddStaticNode(netstack.RSU, p, rsu.NewUnit(backbone))
			sc.RSUs = append(sc.RSUs, id)
		}
	}
}

// carRouters feeds CAR's routers a density map of the road network,
// refreshed from true positions.
func (s *Scenario) carRouters() (netstack.RouterFactory, func(*Scenario)) {
	dmap := car.NewDensityMap(s.Net, s.World.Channel().MeanRange())
	s.installDensityRefresh(dmap)
	return car.New(dmap), nil
}

// rsuPositions spreads n RSUs evenly over the network bounds' long axis.
func rsuPositions(net *roadnet.Network, n int) []geom.Vec2 {
	b := net.Bounds()
	out := make([]geom.Vec2, 0, n)
	for i := 0; i < n; i++ {
		frac := (float64(i) + 0.5) / float64(n)
		out = append(out, geom.V(b.Min.X+frac*b.Width(), b.Center().Y))
	}
	return out
}

// installDensityRefresh samples true vehicle positions once per second to
// feed CAR's density map (idealised density dissemination; see the CAR
// package comment).
func (s *Scenario) installDensityRefresh(dmap *car.DensityMap) {
	world := s.World
	eng := world.Engine()
	var refresh func()
	refresh = func() {
		positions := make([]geom.Vec2, 0, world.Nodes())
		for id := 0; id < world.Nodes(); id++ {
			if kind, ok := world.KindOf(netstack.NodeID(id)); ok && kind != netstack.RSU {
				if p, okP := world.PositionOf(netstack.NodeID(id)); okP {
					positions = append(positions, p)
				}
			}
		}
		dmap.Update(positions)
		eng.After(1.0, refresh)
	}
	eng.After(0, refresh)
}

// Run executes the scenario and returns the metrics summary.
func (s *Scenario) Run() (metrics.Summary, error) {
	if err := s.World.Run(s.Opts.Duration); err != nil {
		return metrics.Summary{}, fmt.Errorf("scenario %s/%s: %w", s.Protocol, s.Name, err)
	}
	return s.Summary(), nil
}

// Summary snapshots the run's metrics, labelled with the scenario's
// protocol and name and stamped with the engine's executed-event count.
// Segmented drivers (the checkpoint plane) call it after the final
// AdvanceTo + CompleteRun instead of Run.
func (s *Scenario) Summary() metrics.Summary {
	sum := s.World.Collector().Summarize(s.Protocol, s.Name)
	sum.Events = int(s.World.Engine().EventCount())
	return sum
}

// RunProtocol is the one-call convenience: build and run.
func RunProtocol(protocol string, opts Options) (metrics.Summary, error) {
	sc, err := Build(protocol, opts)
	if err != nil {
		return metrics.Summary{}, err
	}
	return sc.Run()
}
