package mobility

import (
	"math/rand"

	"github.com/vanetlab/relroute/internal/roadnet"
)

// PopulateOptions control random vehicle placement.
type PopulateOptions struct {
	// Count is the number of vehicles to place.
	Count int
	// SpeedMean and SpeedStd draw each vehicle's desired speed from a
	// normal distribution (the survey's standard assumption), clamped to
	// [5, segment limit + 10%].
	SpeedMean, SpeedStd float64
	// Segments restricts placement to these segments; empty means all.
	Segments []roadnet.SegmentID
}

// Populate scatters cars uniformly over segments and lanes with normally
// distributed desired speeds. It returns the spawned IDs.
func Populate(m *RoadModel, rng *rand.Rand, opts PopulateOptions) []VehicleID {
	segs := opts.Segments
	if len(segs) == 0 {
		for i := 0; i < m.Network().Segments(); i++ {
			segs = append(segs, roadnet.SegmentID(i))
		}
	}
	// weight segments by length so density is uniform per meter
	total := 0.0
	lens := make([]float64, len(segs))
	for i, s := range segs {
		lens[i] = m.Network().Segment(s).Length()
		total += lens[i]
	}
	ids := make([]VehicleID, 0, opts.Count)
	for i := 0; i < opts.Count; i++ {
		pick := rng.Float64() * total
		idx := 0
		for pick > lens[idx] && idx < len(segs)-1 {
			pick -= lens[idx]
			idx++
		}
		seg := m.Network().Segment(segs[idx])
		lane := rng.Intn(seg.Lanes)
		offset := rng.Float64() * seg.Length()
		speed := opts.SpeedMean + opts.SpeedStd*rng.NormFloat64()
		if speed < 5 {
			speed = 5
		}
		if speed > seg.SpeedLimit*1.1 {
			speed = seg.SpeedLimit * 1.1
		}
		params := DefaultIDM(speed)
		ids = append(ids, m.AddVehicle(segs[idx], lane, offset, params, Car))
	}
	return ids
}

// NewHighwayModel builds a bidirectional two-lane highway populated with
// count vehicles scattered over the carriageways, model and scatter
// sharing one rng stream. It is the canonical trace-generation pipeline:
// cmd/tracegen, the harness trace-replay experiment, and the FCD
// round-trip golden test all record from a model built here, so the
// recording contract lives in exactly one place.
func NewHighwayModel(rng *rand.Rand, count int, length, speedMean, speedStd float64) (*RoadModel, error) {
	net, eb, wb, err := roadnet.Highway(length, 2, speedMean+10)
	if err != nil {
		return nil, err
	}
	m := NewRoadModel(net, rng)
	Populate(m, rng, PopulateOptions{
		Count: count, SpeedMean: speedMean, SpeedStd: speedStd,
		Segments: []roadnet.SegmentID{eb, wb},
	})
	return m, nil
}

// AddBusLine places count buses evenly spaced along the route and pins
// their route to loop over it, modelling Kitani's message ferries on
// regular routes.
func AddBusLine(m *RoadModel, route []roadnet.SegmentID, count int, speed float64) []VehicleID {
	if len(route) == 0 || count <= 0 {
		return nil
	}
	total := 0.0
	for _, s := range route {
		total += m.Network().Segment(s).Length()
	}
	ids := make([]VehicleID, 0, count)
	for i := 0; i < count; i++ {
		target := total * float64(i) / float64(count)
		segIdx := 0
		for target > m.Network().Segment(route[segIdx]).Length() && segIdx < len(route)-1 {
			target -= m.Network().Segment(route[segIdx]).Length()
			segIdx++
		}
		params := DefaultIDM(speed)
		params.Length = 12 // buses are longer
		id := m.AddVehicle(route[segIdx], 0, target, params, Bus)
		// Pin the remaining loop as the route; past a route's end a vehicle
		// turns at random, but buses keep an explicit cyclic route.
		var pending []roadnet.SegmentID
		for k := 1; k < 64; k++ { // long enough horizon for any run
			pending = append(pending, route[(segIdx+k)%len(route)])
		}
		m.SetRoute(id, pending)
		ids = append(ids, id)
	}
	return ids
}
