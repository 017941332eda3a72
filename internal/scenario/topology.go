package scenario

import (
	"fmt"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/roadnet"
)

// HighwayTopology is a straight bidirectional multi-lane highway
// (Options.HighwayLength, Options.LanesPerDirection), the paper's default
// evaluation habitat.
type HighwayTopology struct{}

// Name implements Topology.
func (HighwayTopology) Name() string { return "highway" }

// Build implements Topology. Traffic scatters only on the two
// carriageways, not the median crossovers.
func (HighwayTopology) Build(opts *Options) (*roadnet.Network, []roadnet.SegmentID, error) {
	net, eb, wb, err := roadnet.Highway(opts.HighwayLength, opts.LanesPerDirection, opts.SpeedMean+10)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: build highway: %w", err)
	}
	return net, []roadnet.SegmentID{eb, wb}, nil
}

// GridTopology is a Manhattan street grid of Options.GridN junctions per
// side.
type GridTopology struct {
	// Spacing is the block edge in meters (default 400).
	Spacing float64
}

// Name implements Topology.
func (GridTopology) Name() string { return "city" }

// Build implements Topology.
func (t GridTopology) Build(opts *Options) (*roadnet.Network, []roadnet.SegmentID, error) {
	spacing := t.Spacing
	if spacing <= 0 {
		spacing = 400
	}
	net, err := roadnet.Grid(opts.GridN, opts.GridN, spacing, 1, 14)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: build city: %w", err)
	}
	return net, nil, nil
}

// RingTopology is a closed loop that holds density constant indefinitely
// (circumference Options.HighwayLength), a polygon of ringSides sides.
type RingTopology struct{}

// ringSides is the side count of the polygon approximating the ring.
const ringSides = 16

// Name implements Topology.
func (RingTopology) Name() string { return "ring" }

// Build implements Topology.
func (RingTopology) Build(opts *Options) (*roadnet.Network, []roadnet.SegmentID, error) {
	net, err := roadnet.Ring(opts.HighwayLength, ringSides, opts.LanesPerDirection, opts.SpeedMean+10)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: build ring: %w", err)
	}
	return net, nil, nil
}

// TraceTopology derives an envelope road network from the bounding box of
// an FCD trace: a straight two-way road across the long axis of the
// recorded area. Replayed vehicles follow their recorded trajectories
// regardless, but road-aware protocols (CAR's density map, GVGrid's grid
// paths) need some road graph to reason over, and RSU placement spreads
// along the network bounds.
type TraceTopology struct {
	Tracks []mobility.Track
}

// Name implements Topology.
func (TraceTopology) Name() string { return "trace" }

// Build implements Topology.
func (t TraceTopology) Build(*Options) (*roadnet.Network, []roadnet.SegmentID, error) {
	var bounds geom.Rect
	first := true
	for _, tr := range t.Tracks {
		for _, wp := range tr.Waypoints {
			r := geom.NewRect(wp.Pos, wp.Pos)
			if first {
				bounds = r
				first = false
			} else {
				bounds = bounds.Union(r)
			}
		}
	}
	if first {
		return nil, nil, fmt.Errorf("scenario: trace has no waypoints")
	}
	bounds = bounds.Expand(20)
	b := roadnet.NewBuilder()
	c := bounds.Center()
	var j0, j1 roadnet.JunctionID
	if bounds.Width() >= bounds.Height() {
		j0 = b.AddJunction(geom.V(bounds.Min.X, c.Y))
		j1 = b.AddJunction(geom.V(bounds.Max.X, c.Y))
	} else {
		j0 = b.AddJunction(geom.V(c.X, bounds.Min.Y))
		j1 = b.AddJunction(geom.V(c.X, bounds.Max.Y))
	}
	b.AddTwoWay(j0, j1, 1, 3.5, 30)
	net, err := b.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: trace envelope: %w", err)
	}
	return net, nil, nil
}
