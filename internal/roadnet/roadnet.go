// Package roadnet models the road topology vehicles move on: junctions,
// directed multi-lane segments, and least-cost path queries. The mobility
// models (highway car-following, Manhattan grid) and the road-aware routers
// (CAR's per-segment connectivity, GVGrid's grid paths) are built on it.
package roadnet

import (
	"fmt"
	"math"

	"github.com/vanetlab/relroute/internal/geom"
)

// JunctionID identifies a junction (intersection or road endpoint).
type JunctionID int32

// SegmentID identifies a directed road segment.
type SegmentID int32

// Junction is a point where segments meet.
type Junction struct {
	ID  JunctionID
	Pos geom.Vec2
}

// Segment is a directed, straight, multi-lane road between two junctions.
// A two-way road is a pair of segments with swapped endpoints.
type Segment struct {
	ID         SegmentID
	From, To   JunctionID
	Lanes      int     // number of lanes, ≥ 1
	LaneWidth  float64 // meters between lane center lines
	SpeedLimit float64 // m/s; the paper's v_m clamp for this road

	a, b geom.Vec2 // cached junction positions
	dir  geom.Vec2 // cached unit direction a→b
	len  float64
}

// Length returns the segment length in meters.
func (s *Segment) Length() float64 { return s.len }

// Dir returns the unit direction of travel.
func (s *Segment) Dir() geom.Vec2 { return s.dir }

// PosAt converts (lane, offset) road coordinates into plane coordinates.
// Lane 0 is the rightmost lane; lanes stack to the left of the travel
// direction (right-hand traffic).
func (s *Segment) PosAt(lane int, offset float64) geom.Vec2 {
	if offset < 0 {
		offset = 0
	}
	if offset > s.len {
		offset = s.len
	}
	p := s.a.Add(s.dir.Scale(offset))
	// lateral unit pointing left of travel
	left := geom.V(-s.dir.Y, s.dir.X)
	lateral := (float64(lane) + 0.5) * s.LaneWidth
	return p.Add(left.Scale(lateral))
}

// Heading returns the velocity vector for a vehicle travelling at speed v
// along the segment.
func (s *Segment) Heading(v float64) geom.Vec2 { return s.dir.Scale(v) }

// Network is an immutable road graph built by a Builder.
type Network struct {
	junctions []Junction
	segments  []*Segment
	out       map[JunctionID][]SegmentID // outgoing segments per junction
	bounds    geom.Rect
}

// Builder accumulates junctions and segments and produces a Network.
type Builder struct {
	n   *Network
	err error
}

// NewBuilder returns an empty road network builder.
func NewBuilder() *Builder {
	return &Builder{n: &Network{out: make(map[JunctionID][]SegmentID)}}
}

// AddJunction adds a junction at p and returns its ID.
func (b *Builder) AddJunction(p geom.Vec2) JunctionID {
	id := JunctionID(len(b.n.junctions))
	b.n.junctions = append(b.n.junctions, Junction{ID: id, Pos: p})
	return id
}

// AddSegment adds a directed segment between existing junctions and returns
// its ID. Invalid parameters poison the builder; the error surfaces from
// Build.
func (b *Builder) AddSegment(from, to JunctionID, lanes int, laneWidth, speedLimit float64) SegmentID {
	if b.err != nil {
		return -1
	}
	if int(from) >= len(b.n.junctions) || int(to) >= len(b.n.junctions) || from < 0 || to < 0 {
		b.err = fmt.Errorf("roadnet: segment references unknown junction %d→%d", from, to)
		return -1
	}
	if from == to {
		b.err = fmt.Errorf("roadnet: degenerate segment at junction %d", from)
		return -1
	}
	if lanes < 1 {
		lanes = 1
	}
	if laneWidth <= 0 {
		laneWidth = 3.5
	}
	if speedLimit <= 0 {
		speedLimit = 13.9 // 50 km/h default
	}
	a := b.n.junctions[from].Pos
	bb := b.n.junctions[to].Pos
	seg := &Segment{
		ID: SegmentID(len(b.n.segments)), From: from, To: to,
		Lanes: lanes, LaneWidth: laneWidth, SpeedLimit: speedLimit,
		a: a, b: bb, dir: bb.Sub(a).Unit(), len: a.Dist(bb),
	}
	b.n.segments = append(b.n.segments, seg)
	b.n.out[from] = append(b.n.out[from], seg.ID)
	return seg.ID
}

// AddTwoWay adds a pair of opposite segments between two junctions and
// returns both IDs (forward, backward).
func (b *Builder) AddTwoWay(x, y JunctionID, lanes int, laneWidth, speedLimit float64) (SegmentID, SegmentID) {
	f := b.AddSegment(x, y, lanes, laneWidth, speedLimit)
	r := b.AddSegment(y, x, lanes, laneWidth, speedLimit)
	return f, r
}

// Build finalises the network.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.n.segments) == 0 {
		return nil, fmt.Errorf("roadnet: network has no segments")
	}
	bounds := geom.NewRect(b.n.junctions[0].Pos, b.n.junctions[0].Pos)
	for _, j := range b.n.junctions {
		bounds = bounds.Union(geom.NewRect(j.Pos, j.Pos))
	}
	b.n.bounds = bounds.Expand(20)
	return b.n, nil
}

// Segments returns the segment count.
func (n *Network) Segments() int { return len(n.segments) }

// Junction returns the junction with the given ID.
func (n *Network) Junction(id JunctionID) Junction { return n.junctions[id] }

// Segment returns the segment with the given ID.
func (n *Network) Segment(id SegmentID) *Segment { return n.segments[id] }

// Bounds returns the bounding rectangle of the network plus margin.
func (n *Network) Bounds() geom.Rect { return n.bounds }

// NextSegments returns the segments a vehicle can continue onto after s,
// excluding the immediate U-turn back along s where an alternative exists.
func (n *Network) NextSegments(s SegmentID) []SegmentID {
	seg := n.segments[s]
	outs := n.out[seg.To]
	next := make([]SegmentID, 0, len(outs))
	var uturn SegmentID = -1
	for _, o := range outs {
		if n.segments[o].To == seg.From {
			uturn = o
			continue
		}
		next = append(next, o)
	}
	if len(next) == 0 && uturn >= 0 {
		return []SegmentID{uturn}
	}
	return next
}

// BestPath returns the junction-to-junction path minimising the total of an
// arbitrary non-negative segment cost, as a sequence of segment IDs, using
// Dijkstra; ok is false when no path exists. CAR uses it with
// −log(connectivity) weights to maximise the product of per-segment
// connectivity probabilities.
func (n *Network) BestPath(from, to JunctionID, cost func(*Segment) float64) (segs []SegmentID, total float64, ok bool) {
	const inf = math.MaxFloat64
	dist := make([]float64, len(n.junctions))
	prev := make([]SegmentID, len(n.junctions))
	done := make([]bool, len(n.junctions))
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
	}
	if int(from) >= len(dist) || int(to) >= len(dist) || from < 0 || to < 0 {
		return nil, 0, false
	}
	dist[from] = 0
	// Simple O(V²) Dijkstra: networks here have tens to hundreds of
	// junctions, so the dense scan beats heap overhead.
	for {
		u := JunctionID(-1)
		best := inf
		for i, d := range dist {
			if !done[i] && d < best {
				best = d
				u = JunctionID(i)
			}
		}
		if u < 0 {
			break
		}
		if u == to {
			break
		}
		done[u] = true
		for _, sid := range n.out[u] {
			s := n.segments[sid]
			c := cost(s)
			if c < 0 {
				c = 0
			}
			if nd := dist[u] + c; nd < dist[s.To] {
				dist[s.To] = nd
				prev[s.To] = sid
			}
		}
	}
	if dist[to] == inf {
		return nil, 0, false
	}
	var path []SegmentID
	for j := to; j != from; {
		sid := prev[j]
		if sid < 0 {
			return nil, 0, false
		}
		path = append(path, sid)
		j = n.segments[sid].From
	}
	// reverse
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[to], true
}

// NearestJunction returns the junction closest to p.
func (n *Network) NearestJunction(p geom.Vec2) JunctionID {
	best := JunctionID(0)
	bd := math.Inf(1)
	for _, j := range n.junctions {
		if d := j.Pos.DistSq(p); d < bd {
			bd = d
			best = j.ID
		}
	}
	return best
}

// NearestSegment returns the segment whose center line passes closest to p,
// together with the travel offset of the closest point.
func (n *Network) NearestSegment(p geom.Vec2) (SegmentID, float64) {
	best := SegmentID(0)
	bd := math.Inf(1)
	bestOff := 0.0
	for _, s := range n.segments {
		seg := geom.Segment{A: s.a, B: s.b}
		q, t := seg.ClosestPoint(p)
		if d := q.DistSq(p); d < bd {
			bd = d
			best = s.ID
			bestOff = t * s.len
		}
	}
	return best, bestOff
}
