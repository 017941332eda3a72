// Package car implements the Connectivity-Aware Routing protocol of Yang
// et al. (survey Sec. VII-B): every road segment gets a connectivity
// probability derived from its vehicle density on a 5-meter grid (the
// average car length); a road-level route is chosen to maximise the
// product of per-segment connectivity probabilities; data is then
// geo-forwarded through the junction anchors of the chosen road path.
//
// Density input: the paper's protocol aggregates densities from beacons
// flowing along roads. The simulation substitutes a DensityMap refreshed
// from ground truth at a configurable period — the same information with
// idealised dissemination, isolating the routing behaviour under test.
package car

import (
	"math"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/prob"
	"github.com/vanetlab/relroute/internal/roadnet"
	"github.com/vanetlab/relroute/internal/routing"
)

// DensityMap holds smoothed per-segment vehicle densities (vehicles per
// meter). One instance is shared by all CAR routers of a scenario and
// refreshed by the scenario harness.
type DensityMap struct {
	net     *roadnet.Network
	density []float64
	rng     float64 // communication range for the connectivity model
}

// NewDensityMap returns an empty map over the network, with the given
// communication range feeding the connectivity model.
func NewDensityMap(net *roadnet.Network, commRange float64) *DensityMap {
	return &DensityMap{
		net:     net,
		density: make([]float64, net.Segments()),
		rng:     commRange,
	}
}

// Update recomputes densities from vehicle positions (one call per
// refresh period; the harness samples node positions).
func (m *DensityMap) Update(positions []geom.Vec2) {
	counts := make([]int, m.net.Segments())
	for _, p := range positions {
		seg, _ := m.net.NearestSegment(p)
		counts[seg]++
	}
	for i := range m.density {
		l := m.net.Segment(roadnet.SegmentID(i)).Length()
		if l <= 0 {
			m.density[i] = 0
			continue
		}
		// EWMA keeps route choices stable between refreshes
		fresh := float64(counts[i]) / l
		m.density[i] = 0.5*m.density[i] + 0.5*fresh
	}
}

// Density returns the density of segment s in vehicles/meter.
func (m *DensityMap) Density(s roadnet.SegmentID) float64 { return m.density[s] }

// Connectivity returns the CAR connectivity probability of segment s.
func (m *DensityMap) Connectivity(s roadnet.SegmentID) float64 {
	seg := m.net.Segment(s)
	sc := prob.SegmentConnectivity{
		Length:  seg.Length(),
		Density: m.density[s],
		Range:   m.rng,
	}
	return sc.Prob()
}

// BestRoadPath returns the junction path from the junction nearest src to
// the junction nearest dst maximising the product of segment connectivity
// probabilities (Dijkstra on −log p, with a small length tiebreak).
func (m *DensityMap) BestRoadPath(src, dst geom.Vec2) ([]geom.Vec2, bool) {
	from := m.net.NearestJunction(src)
	to := m.net.NearestJunction(dst)
	if from == to {
		return []geom.Vec2{m.net.Junction(from).Pos}, true
	}
	segs, _, ok := m.net.BestPath(from, to, func(s *roadnet.Segment) float64 {
		p := m.Connectivity(s.ID)
		const floor = 1e-6
		if p < floor {
			p = floor
		}
		return -math.Log(p) + 1e-4*s.Length()
	})
	if !ok {
		return nil, false
	}
	anchors := make([]geom.Vec2, 0, len(segs)+1)
	anchors = append(anchors, m.net.Junction(from).Pos)
	for _, sid := range segs {
		anchors = append(anchors, m.net.Junction(m.net.Segment(sid).To).Pos)
	}
	return anchors, true
}

// header carries the anchor path on data packets.
type header struct {
	Anchors []geom.Vec2
	Next    int // index of the next anchor to reach
}

// pathLen measures the polyline src → anchors… → dst.
func pathLen(src geom.Vec2, anchors []geom.Vec2, dst geom.Vec2) float64 {
	total := 0.0
	prev := src
	for _, a := range anchors {
		total += prev.Dist(a)
		prev = a
	}
	return total + prev.Dist(dst)
}

// Router is a per-node CAR instance: the carry-and-forward core steered
// through the anchors its Originate stamps on each packet.
type Router struct {
	routing.Carrier
	dmap *DensityMap
}

// New returns a CAR router factory over the shared density map.
func New(dmap *DensityMap) netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{dmap: dmap}
		r.Init(8, r)
		return r
	}
}

// Originate implements netstack.Router.
func (r *Router) Originate(dst netstack.NodeID, size int) {
	pkt := routing.NewData(r.API, dst, size)
	dstPos, _, ok := r.API.LookupPosition(dst)
	if !ok {
		r.API.Drop(pkt)
		return
	}
	// Anchor the packet along the most-connected road path; with no road
	// path (or src/dst on the same segment) fall back to plain
	// geo-forwarding toward the destination. A road path much longer than
	// the radio geodesic (e.g. a median U-turn on a highway) is skipped
	// too — the radio does not follow lane topology.
	if anchors, okPath := r.dmap.BestRoadPath(r.API.Pos(), dstPos); okPath && len(anchors) > 1 {
		direct := r.API.Pos().Dist(dstPos)
		if pathLen(r.API.Pos(), anchors, dstPos) <= 2*direct+100 {
			pkt.Payload = header{Anchors: anchors}
			pkt.Size += 8 * len(anchors)
		}
	}
	r.Route(pkt)
}

// currentTarget returns the position forwarding currently aims at: the
// next unreached anchor, or the destination once anchors are exhausted.
func (r *Router) currentTarget(pkt *netstack.Packet) (geom.Vec2, bool) {
	hdr, ok := pkt.Payload.(header)
	if !ok {
		dstPos, _, okD := r.API.LookupPosition(pkt.Dst)
		return dstPos, okD
	}
	const anchorReach = 60 // meters: an anchor counts as passed
	next := hdr.Next
	for next < len(hdr.Anchors) && r.API.Pos().Dist(hdr.Anchors[next]) < anchorReach {
		next++
	}
	if next != hdr.Next {
		cp := hdr
		cp.Next = next
		pkt.Payload = cp
	}
	if next < len(hdr.Anchors) {
		return hdr.Anchors[next], true
	}
	dstPos, _, okD := r.API.LookupPosition(pkt.Dst)
	return dstPos, okD
}

// NextHop geo-forwards to the neighbor closest to the current target.
func (r *Router) NextHop(pkt *netstack.Packet) routing.Hop {
	if r.API.HasNeighbor(pkt.Dst) {
		return routing.Forward(pkt.Dst)
	}
	target, ok := r.currentTarget(pkt)
	if !ok {
		return routing.Drop()
	}
	selfD := r.API.Pos().Dist(target)
	best := netstack.Broadcast
	bestD := selfD
	var buf [routing.NeighborBuf]netstack.Neighbor
	for _, nb := range r.API.AppendNeighbors(buf[:0]) {
		if d := nb.Pos.Dist(target); d < bestD {
			bestD = d
			best = nb.ID
		}
	}
	if best != netstack.Broadcast {
		return routing.Forward(best)
	}
	return routing.Carry()
}

// Retry settles for any neighbor closer to the current target.
func (r *Router) Retry(pkt *netstack.Packet) routing.Hop {
	if r.API.HasNeighbor(pkt.Dst) {
		return routing.Forward(pkt.Dst)
	}
	target, ok := r.currentTarget(pkt)
	if !ok {
		return routing.Carry()
	}
	return routing.FirstCloser(r.API, target)
}
