package scenario

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/prng"
	"github.com/vanetlab/relroute/internal/roadnet"
)

// churnSeedOffset derives the open-world arrival/departure stream from
// Options.Seed without perturbing any existing stream (the root stream
// sits at Seed, the workload stream at Seed+7).
const churnSeedOffset = 13

// ClosedTraffic is the classic closed-world population: Options.Vehicles
// cars (plus Options.Buses ferries) scattered at t=0, present for the
// whole run. It reproduces the pre-provider scenario builder draw for
// draw, which is what keeps every golden experiment output byte-identical
// through the provider refactor.
type ClosedTraffic struct{}

// BuildModel implements Traffic. Draw order: one stream seed for the road
// model, one for the population scatter.
func (ClosedTraffic) BuildModel(net *roadnet.Network, segs []roadnet.SegmentID, rng *rand.Rand, opts *Options) (mobility.Model, error) {
	model := mobility.NewRoadModelSeeded(net, rng.Int63(), mobility.ContinueRandom)
	scatter, _ := prng.Rand(rng.Int63())
	mobility.Populate(model, scatter, mobility.PopulateOptions{
		Count:     opts.Vehicles,
		SpeedMean: opts.SpeedMean,
		SpeedStd:  opts.SpeedStd,
		Segments:  segs,
	})
	if opts.Buses > 0 {
		var loop []roadnet.SegmentID
		for i := 0; i < net.Segments(); i++ {
			loop = append(loop, roadnet.SegmentID(i))
		}
		mobility.AddBusLine(model, loop, opts.Buses, opts.SpeedMean*0.7)
	}
	return model, nil
}

// Install implements Traffic (closed worlds have no runtime behaviour).
func (ClosedTraffic) Install(*Scenario) {}

// RateProfile is a time-varying Poisson arrival intensity in vehicles per
// second. Peak bounds the intensity (the thinning envelope); Rate maps
// simulation time to the instantaneous intensity, nil meaning constant
// Peak.
type RateProfile struct {
	Peak float64
	Rate func(t float64) float64
}

// ConstantRate is a homogeneous arrival process of r vehicles per second.
func ConstantRate(r float64) RateProfile { return RateProfile{Peak: r} }

// RushHour ramps the arrival intensity linearly from base up to peak at
// time peakAt and back down, width seconds in each direction — the
// classic commute profile where density builds, saturates, and drains
// within one run.
func RushHour(base, peak, peakAt, width float64) RateProfile {
	if width <= 0 {
		width = 1
	}
	return RateProfile{
		Peak: peak,
		Rate: func(t float64) float64 {
			d := t - peakAt
			if d < 0 {
				d = -d
			}
			if d >= width {
				return base
			}
			return base + (peak-base)*(1-d/width)
		},
	}
}

// OpenTraffic is the open-world population: an initial scatter plus a
// seeded Poisson arrival process (optionally rate-profiled) and
// lifetime-bounded departures. Vehicles spawn at segment entries, drive
// under IDM like everyone else, and despawn when their lifetime expires —
// the network stack observes every entry and exit through its open-world
// membership machinery (nodes join and leave mid-run).
type OpenTraffic struct {
	// Initial is the population at t=0 (default Options.Vehicles/2,
	// minimum 2 so workloads have endpoints).
	Initial int
	// Arrivals is the Poisson arrival intensity profile. Peak <= 0
	// disables arrivals.
	Arrivals RateProfile
	// MeanLifetime is the mean of the exponential lifetime assigned to
	// every vehicle (initial and spawned); 0 keeps vehicles until the run
	// ends.
	MeanLifetime float64
	// MaxVehicles caps the live population (default 4 × Options.Vehicles).
	MaxVehicles int
}

func (t OpenTraffic) initial(opts *Options) int {
	if t.Initial > 0 {
		return t.Initial
	}
	n := opts.Vehicles / 2
	if n < 2 {
		n = 2
	}
	return n
}

// BuildModel implements Traffic: the initial scatter mirrors
// ClosedTraffic with the reduced count.
func (t OpenTraffic) BuildModel(net *roadnet.Network, segs []roadnet.SegmentID, rng *rand.Rand, opts *Options) (mobility.Model, error) {
	model := mobility.NewRoadModelSeeded(net, rng.Int63(), mobility.ContinueRandom)
	scatter, _ := prng.Rand(rng.Int63())
	mobility.Populate(model, scatter, mobility.PopulateOptions{
		Count:     t.initial(opts),
		SpeedMean: opts.SpeedMean,
		SpeedStd:  opts.SpeedStd,
		Segments:  segs,
	})
	return model, nil
}

// Install implements Traffic: enable open-world membership on the world
// and schedule the arrival/departure processes on the engine, all driven
// by one private stream at Seed+churnSeedOffset.
func (t OpenTraffic) Install(sc *Scenario) {
	road := sc.Road
	if road == nil {
		return
	}
	opts := &sc.Opts
	rng, churnSrc := prng.Rand(opts.Seed + churnSeedOffset)
	sc.World.RegisterStream("scenario/churn", churnSrc)
	eng := sc.World.Engine()
	sc.World.SetJoinFactory(sc.factory)

	maxVehicles := t.MaxVehicles
	if maxVehicles <= 0 {
		maxVehicles = 4 * opts.Vehicles
	}
	scheduleDeparture := func(id mobility.VehicleID) {
		if t.MeanLifetime <= 0 {
			return
		}
		eng.After(rng.ExpFloat64()*t.MeanLifetime, func() {
			road.RemoveVehicle(id)
		})
	}
	// lifetime-bounded departures for the initial population
	for _, s := range road.States() {
		scheduleDeparture(s.ID)
	}

	peak := t.Arrivals.Peak
	if peak <= 0 {
		return
	}
	spawnSegs := sc.Segments
	if len(spawnSegs) == 0 {
		for i := 0; i < sc.Net.Segments(); i++ {
			spawnSegs = append(spawnSegs, roadnet.SegmentID(i))
		}
	}
	rate := t.Arrivals.Rate
	spawn := func() {
		segID := spawnSegs[rng.Intn(len(spawnSegs))]
		seg := sc.Net.Segment(segID)
		lane := rng.Intn(seg.Lanes)
		speed := opts.SpeedMean + opts.SpeedStd*rng.NormFloat64()
		if speed < 5 {
			speed = 5
		}
		if speed > seg.SpeedLimit*1.1 {
			speed = seg.SpeedLimit * 1.1
		}
		// enter at the segment start, like a car merging from a ramp
		id := road.AddVehicle(segID, lane, 0, mobility.DefaultIDM(speed), mobility.Car)
		scheduleDeparture(id)
	}
	// homogeneous Poisson process at the peak intensity, thinned down to
	// the profile: one exponential gap per event, one acceptance draw when
	// the profile varies — a fixed draw order, so equal seeds replay the
	// exact same arrival history
	var arrive func()
	arrive = func() {
		accept := true
		if rate != nil {
			accept = rng.Float64()*peak <= rate(eng.Now())
		}
		if accept && road.Len() < maxVehicles {
			spawn()
		}
		eng.After(rng.ExpFloat64()/peak, arrive)
	}
	eng.After(rng.ExpFloat64()/peak, arrive)
}

// TraceTraffic replays recorded trajectories (SUMO FCD exports or
// tracegen output) through a PlaybackModel. Every track carries its own
// active window, so vehicles enter the world when their trace begins and
// leave when it ends; the world's open membership follows along.
type TraceTraffic struct {
	Tracks []mobility.Track
}

// normalizeTracks deep-copies tracks into canonical form — waypoints
// time-sorted, classes defaulted — so the caller's slice is never
// mutated (one Options value may be shared across parallel campaign
// runs) and Track.Span's sortedness assumption holds.
func normalizeTracks(tracks []mobility.Track) []mobility.Track {
	cp := make([]mobility.Track, len(tracks))
	copy(cp, tracks)
	for i := range cp {
		wps := append([]mobility.Waypoint(nil), cp[i].Waypoints...)
		sort.Slice(wps, func(a, b int) bool { return wps[a].T < wps[b].T })
		cp[i].Waypoints = wps
		if cp[i].Class == 0 {
			cp[i].Class = mobility.Car
		}
	}
	return cp
}

// BuildModel implements Traffic.
func (t TraceTraffic) BuildModel(_ *roadnet.Network, _ []roadnet.SegmentID, _ *rand.Rand, _ *Options) (mobility.Model, error) {
	if len(t.Tracks) == 0 {
		return nil, fmt.Errorf("scenario: trace traffic has no tracks")
	}
	return mobility.NewPlayback(normalizeTracks(t.Tracks)), nil
}

// Install implements Traffic: tracks whose window opens mid-run join the
// world through the factory; closed windows leave. The tracks are also
// published on the scenario — in normalized form, so window arithmetic
// is valid — for workloads to wire flows over their active windows.
func (t TraceTraffic) Install(sc *Scenario) {
	sc.Tracks = normalizeTracks(t.Tracks)
	sc.World.SetJoinFactory(sc.factory)
}
