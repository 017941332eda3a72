package scenario

import (
	"fmt"
	"math/rand"

	"github.com/vanetlab/relroute/internal/channel"
	"github.com/vanetlab/relroute/internal/faults"
	"github.com/vanetlab/relroute/internal/linkstate"
	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/prng"
	"github.com/vanetlab/relroute/internal/roadnet"
)

// Topology builds the road network a scenario runs on. Implementations
// are small value types (HighwayTopology, GridTopology, RingTopology,
// TraceTopology) so specs stay declarative.
type Topology interface {
	// Name labels the topology in scenario names ("highway", "city", ...).
	Name() string
	// Build returns the road network and, optionally, the segments the
	// traffic source should restrict itself to (nil means all segments).
	Build(opts *Options) (*roadnet.Network, []roadnet.SegmentID, error)
}

// Traffic creates and drives the vehicle population. Closed-world sources
// place every vehicle at t=0 and keep the population fixed; open-world
// sources additionally schedule arrivals and departures at runtime, and
// trace sources replay recorded trajectories with per-track lifetimes.
type Traffic interface {
	// BuildModel creates the mobility model. Implementations must draw
	// from rng in a fixed, documented order — the draw sequence is part of
	// the determinism contract that keeps equal seeds byte-identical.
	BuildModel(net *roadnet.Network, segs []roadnet.SegmentID, rng *rand.Rand, opts *Options) (mobility.Model, error)
	// Install wires runtime behaviour (arrival processes, departures,
	// open-world membership) once the world exists. Closed-world sources
	// are a no-op.
	Install(sc *Scenario)
}

// Workload injects application traffic into a built scenario: CBR flows,
// bursty emergency broadcasts, V2I request/response, or any mix.
type Workload interface {
	// Install schedules the workload's traffic on the scenario's world.
	// rng is the workload's private stream (derived from Options.Seed).
	Install(sc *Scenario, rng *rand.Rand)
}

// Spec composes a scenario from providers. Nil fields take the
// closed-world defaults: the topology selected by Options.Kind, a
// ClosedTraffic population, and a CBRWorkload.
type Spec struct {
	// Name labels the scenario ("" uses the topology name).
	Name string
	// Topology builds the road network.
	Topology Topology
	// Traffic populates and drives the vehicle population.
	Traffic Traffic
	// Workload injects application traffic.
	Workload Workload
}

// topologyFor maps the legacy Options.Kind selector to its provider.
func topologyFor(k Kind) Topology {
	switch k {
	case CityKind:
		return GridTopology{}
	case RingKind:
		return RingTopology{}
	default:
		return HighwayTopology{}
	}
}

// BuildSpec assembles a scenario from explicitly composed providers. The
// legacy Build(protocol, opts) facade routes through here; the draw order
// below (mobility streams from the root, world seed, workload stream at
// Seed+7) is frozen — reordering it would silently change every golden
// experiment output.
func BuildSpec(protocol string, spec Spec, opts Options) (*Scenario, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.setDefaults()
	return buildSpec(protocol, spec, opts, nil)
}

// buildSpec is BuildSpec on options already validated and defaulted, with,
// when vehicles is not nil, that factory in place of the named protocol's
// vehicle routers: tests run a protocol against a variant of itself in the
// very same world.
func buildSpec(protocol string, spec Spec, opts Options, vehicles netstack.RouterFactory) (*Scenario, error) {
	if !linkstate.Known(opts.Estimator) {
		return nil, fmt.Errorf("scenario: unknown link estimator %q (known: %v)", opts.Estimator, linkstate.Names())
	}
	if opts.Faults != "" && !faults.Known(opts.Faults) {
		return nil, fmt.Errorf("scenario: unknown fault profile %q (known: %v)", opts.Faults, faults.Names())
	}
	if spec.Topology == nil {
		spec.Topology = topologyFor(opts.Kind)
	}
	if spec.Traffic == nil {
		spec.Traffic = ClosedTraffic{}
	}
	if spec.Workload == nil {
		spec.Workload = CBRWorkload{}
	}
	rng, _ := prng.Rand(opts.Seed)

	net, segs, err := spec.Topology.Build(&opts)
	if err != nil {
		return nil, err
	}
	model, err := spec.Traffic.BuildModel(net, segs, rng, &opts)
	if err != nil {
		return nil, err
	}

	var ch channel.Model = channel.UnitDisk{Range: opts.Range}
	if opts.Shadowing {
		ch = channel.NewShadowing(channelReceiptFor(opts.Range))
	}
	world := netstack.NewWorld(netstack.Config{
		Seed:      rng.Int63(),
		Channel:   ch,
		Estimator: opts.Estimator,
	}, model)

	label := spec.Name
	if label == "" {
		label = spec.Topology.Name()
	}
	sc := &Scenario{
		Name:     fmt.Sprintf("%s/%d-veh", label, opts.Vehicles),
		Protocol: protocol,
		World:    world, Net: net, Model: model, Segments: segs, Opts: opts,
	}

	factory, static, err := sc.protocolFactory(protocol)
	if err != nil {
		return nil, err
	}
	if vehicles != nil {
		factory = vehicles
	}
	sc.factory = factory
	sc.Vehicles = world.AddVehicleNodes(factory)
	if static != nil {
		static(sc)
	}
	spec.Traffic.Install(sc)
	workload, _ := prng.Rand(opts.Seed + 7)
	spec.Workload.Install(sc, workload)
	// Fault injection installs last, after the population and workload are
	// final, so profiles see the complete node lists and their scheduled
	// events fire before same-timestamp run-time events (a crash at t
	// lands before that tick's traffic). The fault stream (Seed+13) is
	// only materialized here — fault-free runs draw nothing extra.
	if opts.Faults != "" {
		if _, err := faults.InstallNamed(opts.Faults, world, faults.Context{
			Seed:     opts.Seed + 13,
			Duration: opts.Duration,
			Bounds:   net.Bounds(),
			Vehicles: sc.Vehicles,
			RSUs:     sc.RSUs,
		}); err != nil {
			return nil, err
		}
	}
	return sc, nil
}
