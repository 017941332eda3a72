package roadnet

import (
	"math"
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
)

func buildT(t *testing.T) *Network {
	t.Helper()
	// a triangle with a one-way chord
	b := NewBuilder()
	a := b.AddJunction(geom.V(0, 0))
	c := b.AddJunction(geom.V(1000, 0))
	d := b.AddJunction(geom.V(0, 1000))
	b.AddTwoWay(a, c, 2, 3.5, 30)
	b.AddTwoWay(c, d, 1, 3.5, 20)
	b.AddSegment(a, d, 1, 3.5, 10) // one-way chord
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// length is the cost that makes BestPath the shortest path.
func length(s *Segment) float64 { return s.Length() }

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Build(); err == nil {
		t.Error("empty network built without error")
	}
	b = NewBuilder()
	j := b.AddJunction(geom.V(0, 0))
	b.AddSegment(j, j, 1, 3.5, 10) // degenerate
	if _, err := b.Build(); err == nil {
		t.Error("degenerate segment accepted")
	}
	b = NewBuilder()
	j = b.AddJunction(geom.V(0, 0))
	b.AddSegment(j, JunctionID(99), 1, 3.5, 10)
	if _, err := b.Build(); err == nil {
		t.Error("unknown junction accepted")
	}
}

func TestBuilderDefaults(t *testing.T) {
	b := NewBuilder()
	a := b.AddJunction(geom.V(0, 0))
	c := b.AddJunction(geom.V(100, 0))
	id := b.AddSegment(a, c, 0, 0, 0) // all defaulted
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := n.Segment(id)
	if s.Lanes != 1 || s.LaneWidth != 3.5 || s.SpeedLimit <= 0 {
		t.Fatalf("defaults not applied: %+v", s)
	}
}

func TestSegmentGeometry(t *testing.T) {
	n := buildT(t)
	s := n.Segment(0) // a→c eastbound
	if s.Length() != 1000 {
		t.Fatalf("length = %v", s.Length())
	}
	if s.Dir() != geom.V(1, 0) {
		t.Fatalf("dir = %v", s.Dir())
	}
	// lane 0 center line is laneWidth/2 left of travel direction
	p := s.PosAt(0, 500)
	if math.Abs(p.X-500) > 1e-9 || math.Abs(p.Y-1.75) > 1e-9 {
		t.Fatalf("PosAt = %v", p)
	}
	p1 := s.PosAt(1, 500)
	if math.Abs(p1.Y-5.25) > 1e-9 {
		t.Fatalf("lane 1 PosAt = %v", p1)
	}
	// offsets clamp
	if got := s.PosAt(0, -10); got != s.PosAt(0, 0) {
		t.Error("negative offset not clamped")
	}
	if got := s.PosAt(0, 9999); got != s.PosAt(0, 1000) {
		t.Error("overlong offset not clamped")
	}
	if got := s.Heading(20); got != geom.V(20, 0) {
		t.Fatalf("heading = %v", got)
	}
}

func TestAdjacency(t *testing.T) {
	n := buildT(t)
	if len(n.junctions) != 3 || n.Segments() != 5 {
		t.Fatalf("junctions=%d segments=%d", len(n.junctions), n.Segments())
	}
	if outs := n.out[0]; len(outs) != 2 { // a→c and a→d
		t.Fatalf("outgoing(a) = %v", outs)
	}
	for i := 0; i < n.Segments(); i++ {
		for _, next := range n.NextSegments(SegmentID(i)) {
			if n.Segment(next).From != n.Segment(SegmentID(i)).To {
				t.Fatalf("segment %d continues onto %d, which starts elsewhere", i, next)
			}
		}
	}
}

func TestNextSegmentsAvoidsUTurn(t *testing.T) {
	n := buildT(t)
	// after a→c: choices at c are c→a (U-turn) and c→d; U-turn excluded
	next := n.NextSegments(0)
	if len(next) != 1 || n.Segment(next[0]).To != 2 {
		t.Fatalf("NextSegments = %v", next)
	}
	// dead-end U-turn is allowed when nothing else exists
	b := NewBuilder()
	x := b.AddJunction(geom.V(0, 0))
	y := b.AddJunction(geom.V(100, 0))
	f, _ := b.AddTwoWay(x, y, 1, 3.5, 10)
	n2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	next = n2.NextSegments(f)
	if len(next) != 1 {
		t.Fatalf("dead-end NextSegments = %v", next)
	}
}

func TestShortestPath(t *testing.T) {
	n := buildT(t)
	// a→d direct chord is 1000; a→c→d is 1000+~1414
	segs, dist, ok := n.BestPath(0, 2, length)
	if !ok || len(segs) != 1 || math.Abs(dist-1000) > 1e-9 {
		t.Fatalf("path=%v dist=%v ok=%v", segs, dist, ok)
	}
	// d→a has no chord back; must go d→c→a
	segs, dist, ok = n.BestPath(2, 0, length)
	if !ok || len(segs) != 2 {
		t.Fatalf("reverse path=%v dist=%v", segs, dist)
	}
	// unknown junctions
	if _, _, ok := n.BestPath(-1, 2, length); ok {
		t.Error("negative junction accepted")
	}
}

func TestFastestPathPrefersFastRoad(t *testing.T) {
	// the least free-flow travel time takes the fast direct road over the
	// slow, shorter-looking detour
	b := NewBuilder()
	a := b.AddJunction(geom.V(0, 0))
	c := b.AddJunction(geom.V(1000, 0))
	d := b.AddJunction(geom.V(500, 100))
	b.AddSegment(a, c, 1, 3.5, 40) // fast direct
	b.AddSegment(a, d, 1, 3.5, 5)
	b.AddSegment(d, c, 1, 3.5, 5)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	segs, _, ok := n.BestPath(a, c, func(s *Segment) float64 { return s.Length() / s.SpeedLimit })
	if !ok || len(segs) != 1 {
		t.Fatalf("fastest path = %v", segs)
	}
}

func TestBestPathCustomCost(t *testing.T) {
	n := buildT(t)
	// penalise the chord heavily: path must detour via c
	segs, _, ok := n.BestPath(0, 2, func(s *Segment) float64 {
		if s.From == 0 && s.To == 2 {
			return 1e9
		}
		return s.Length()
	})
	if !ok || len(segs) != 2 {
		t.Fatalf("custom-cost path = %v", segs)
	}
}

func TestNearest(t *testing.T) {
	n := buildT(t)
	if got := n.NearestJunction(geom.V(990, 30)); got != 1 {
		t.Fatalf("nearest junction = %v", got)
	}
	seg, off := n.NearestSegment(geom.V(500, 1))
	s := n.Segment(seg)
	if !(s.From == 0 && s.To == 1) && !(s.From == 1 && s.To == 0) {
		t.Fatalf("nearest segment = %v", seg)
	}
	if off < 400 || off > 600 {
		t.Fatalf("offset = %v", off)
	}
}

func TestHighwayPreset(t *testing.T) {
	n, eb, wb, err := Highway(2000, 2, 33)
	if err != nil {
		t.Fatal(err)
	}
	if n.Segment(eb).Length() != 2000 || n.Segment(wb).Length() != 2000 {
		t.Fatal("carriageway lengths wrong")
	}
	if n.Segment(eb).Dir().X <= 0 || n.Segment(wb).Dir().X >= 0 {
		t.Fatal("carriageway directions wrong")
	}
	// crossovers make the graph strongly connected
	for from := JunctionID(0); int(from) < len(n.junctions); from++ {
		for to := JunctionID(0); int(to) < len(n.junctions); to++ {
			if from == to {
				continue
			}
			if _, _, ok := n.BestPath(from, to, length); !ok {
				t.Fatalf("no path %d→%d: highway graph not strongly connected", from, to)
			}
		}
	}
	if _, _, _, err := Highway(-5, 2, 33); err == nil {
		t.Error("negative length accepted")
	}
}

func TestGridPreset(t *testing.T) {
	n, err := Grid(3, 3, 400, 1, 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.junctions) != 9 {
		t.Fatalf("junctions = %d", len(n.junctions))
	}
	// 12 block edges × 2 directions
	if n.Segments() != 24 {
		t.Fatalf("segments = %d", n.Segments())
	}
	// corner to opposite corner is reachable
	if _, dist, ok := n.BestPath(0, 8, length); !ok || math.Abs(dist-1600) > 1e-6 {
		t.Fatalf("corner path dist = %v ok=%v", dist, ok)
	}
	// 1-wide grids are a supported degenerate line (see TestGridEdgeCases)
	if _, err := Grid(1, 3, 400, 1, 14); err != nil {
		t.Errorf("1×3 line grid rejected: %v", err)
	}
	if _, err := Grid(3, 3, -1, 1, 14); err == nil {
		t.Error("negative spacing accepted")
	}
}

func TestRingPreset(t *testing.T) {
	n, err := Ring(3200, 16, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if n.Segments() != 16 {
		t.Fatalf("segments = %d", n.Segments())
	}
	total := 0.0
	for i := 0; i < n.Segments(); i++ {
		total += n.Segment(SegmentID(i)).Length()
	}
	if math.Abs(total-3200) > 1 {
		t.Fatalf("circumference = %v", total)
	}
	// every segment continues onto exactly one next segment
	for i := 0; i < n.Segments(); i++ {
		if got := n.NextSegments(SegmentID(i)); len(got) != 1 {
			t.Fatalf("segment %d next = %v", i, got)
		}
	}
	if _, err := Ring(-1, 16, 1, 30); err == nil {
		t.Error("negative circumference accepted")
	}
}

func TestBounds(t *testing.T) {
	n := buildT(t)
	b := n.Bounds()
	if !b.Contains(geom.V(0, 0)) || !b.Contains(geom.V(1000, 1000)) {
		t.Fatalf("bounds = %+v", b)
	}
}

func TestGridEdgeCases(t *testing.T) {
	// a 1×N grid is a straight two-way avenue: N junctions, 2(N−1) segments
	line, err := Grid(1, 5, 300, 1, 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(line.junctions) != 5 {
		t.Fatalf("1×5 junctions = %d", len(line.junctions))
	}
	if line.Segments() != 8 {
		t.Fatalf("1×5 segments = %d, want 2×(5−1)", line.Segments())
	}
	// the line must stay strongly connected: a path exists between the ends
	if _, _, ok := line.BestPath(0, 4, length); !ok {
		t.Fatal("no path along the 1×5 line")
	}
	if _, _, ok := line.BestPath(4, 0, length); !ok {
		t.Fatal("no return path along the 1×5 line")
	}
	// N×1 is the transposed line
	if row, err := Grid(5, 1, 300, 1, 14); err != nil {
		t.Fatal(err)
	} else if row.Segments() != 8 {
		t.Fatalf("5×1 segments = %d", row.Segments())
	}
	// a single junction has no segments: rejected
	if _, err := Grid(1, 1, 300, 1, 14); err == nil {
		t.Fatal("1×1 grid accepted")
	}
	if _, err := Grid(0, 4, 300, 1, 14); err == nil {
		t.Fatal("0×4 grid accepted")
	}
	// zero and negative spacing are rejected, not built degenerate
	if _, err := Grid(3, 3, 0, 1, 14); err == nil {
		t.Fatal("zero spacing accepted")
	}
	if _, err := Grid(3, 3, -50, 1, 14); err == nil {
		t.Fatal("negative spacing accepted")
	}
}

func TestNearestSegmentOnGridBoundaries(t *testing.T) {
	n, err := Grid(3, 3, 100, 1, 14)
	if err != nil {
		t.Fatal(err)
	}
	// a query exactly on a corner junction resolves to a segment touching
	// that corner, with the offset at one of its ends
	for _, corner := range []geom.Vec2{geom.V(0, 0), geom.V(200, 200), geom.V(0, 200), geom.V(200, 0)} {
		sid, off := n.NearestSegment(corner)
		seg := n.Segment(sid)
		if seg == nil {
			t.Fatalf("corner %v: nil segment", corner)
		}
		a := n.Junction(seg.From).Pos
		b := n.Junction(seg.To).Pos
		if a.Dist(corner) > 1e-9 && b.Dist(corner) > 1e-9 {
			t.Errorf("corner %v resolved to segment %d (%v→%v) not touching it", corner, sid, a, b)
		}
		if off < -1e-9 || off > seg.Length()+1e-9 {
			t.Errorf("corner %v: offset %v outside [0, %v]", corner, off, seg.Length())
		}
	}
	// a query outside the grid clamps onto the boundary street
	sid, off := n.NearestSegment(geom.V(-40, 150))
	seg := n.Segment(sid)
	mid := seg.PosAt(0, off)
	if mid.X > 60 {
		t.Errorf("outside-west query resolved deep inside the grid: %v (segment %d)", mid, sid)
	}
	// a query at a block center is equidistant from four streets and must
	// still resolve deterministically to a valid segment
	sid1, _ := n.NearestSegment(geom.V(50, 50))
	sid2, _ := n.NearestSegment(geom.V(50, 50))
	if sid1 != sid2 {
		t.Errorf("block-center query not deterministic: %d vs %d", sid1, sid2)
	}
}

// TestNextSegmentsBuiltOnce checks the successor lists Build stores on the
// presets against a from-scratch derivation — every segment leaving s's end
// junction in ID order, less the U-turn back to s's start unless it is the
// only one — and that reading them allocates nothing. Mobility's draws
// index into these lists, so order is part of the contract.
func TestNextSegmentsBuiltOnce(t *testing.T) {
	grid, err := Grid(10, 10, 200, 2, 14)
	if err != nil {
		t.Fatal(err)
	}
	hwy, _, _, err := Highway(5000, 3, 30)
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*Network{"Grid": grid, "Highway": hwy} {
		for i := range n.Segments() {
			s := n.Segment(SegmentID(i))
			var want []SegmentID
			uturn := SegmentID(-1)
			for j := range n.Segments() {
				switch o := n.Segment(SegmentID(j)); {
				case o.From != s.To:
				case o.To == s.From:
					uturn = o.ID
				default:
					want = append(want, o.ID)
				}
			}
			if len(want) == 0 && uturn >= 0 {
				want = []SegmentID{uturn}
			}
			if got := n.NextSegments(s.ID); !slices.Equal(got, want) {
				t.Fatalf("%s: NextSegments(%d) = %v, want %v", name, s.ID, got, want)
			}
		}
		read := 0
		if allocs := testing.AllocsPerRun(10, func() {
			for i := range n.Segments() {
				read += len(n.NextSegments(SegmentID(i)))
			}
		}); allocs != 0 || read == 0 {
			t.Fatalf("%s: NextSegments allocated %v times per pass over %d successors, want 0", name, allocs, read)
		}
	}
}
