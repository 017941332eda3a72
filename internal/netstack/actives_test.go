package netstack

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mobility"
)

// quietRouter is a router with no beacon substrate: worlds running it do
// nothing per tick beyond kinematics, which is what makes the "a quiet
// world sweeps nothing" regression observable.
type quietRouter struct{ Base }

func newQuietRouter() Router                  { return &quietRouter{} }
func (r *quietRouter) Name() string           { return "quiet-test" }
func (r *quietRouter) NeedsBeacons() bool     { return false }
func (r *quietRouter) HandlePacket(p *Packet) { r.API.Release(p) }
func (r *quietRouter) Originate(NodeID, int)  {}

// longTracks builds n parallel tracks alive for the whole run.
func longTracks(n int, until float64) []mobility.Track {
	tracks := make([]mobility.Track, n)
	for i := range tracks {
		y := float64(i) * 40
		tracks[i] = mobility.Track{
			ID: mobility.VehicleID(i),
			Waypoints: []mobility.Waypoint{
				{T: 0, Pos: geom.V(0, y), Speed: 10},
				{T: until, Pos: geom.V(10*until, y), Speed: 10},
			},
		}
	}
	return tracks
}

// TestQuietWorldSweepsNothing is the active-slice regression: a 1,000-node
// world with no traffic and no beacons must spend its ticks on kinematics
// only — every monitor's expiry stays on the oldest-bound fast path
// (FullSweeps == 0) and the kinematic memo is never even consulted. This
// held before the sweeps iterated the active slice and must keep holding.
func TestQuietWorldSweepsNothing(t *testing.T) {
	const n = 1000
	w := NewWorld(Config{Seed: 13}, mobility.NewPlayback(longTracks(n, 30)))
	w.AddVehicleNodes(newQuietRouter)
	if err := w.Run(20); err != nil {
		t.Fatal(err)
	}
	if w.ActiveNodes() != n {
		t.Fatalf("active = %d, want %d", w.ActiveNodes(), n)
	}
	for _, node := range w.nodes {
		if got := node.mon.FullSweeps(); got != 0 {
			t.Fatalf("node %d ran %d full expiry sweeps in a quiet world", node.id, got)
		}
		if hits, misses := node.mon.MemoStats(); hits+misses != 0 {
			t.Fatalf("node %d did %d/%d memoized lifetime solves in a quiet world", node.id, hits, misses)
		}
	}
}

// TestActiveSliceBookkeeping pins the membership index the sweeps iterate:
// it mirrors failure injection and recovery exactly and stays sorted by
// node ID (the order every sweep visits nodes in).
func TestActiveSliceBookkeeping(t *testing.T) {
	w := NewWorld(Config{Seed: 17}, mobility.NewPlayback(longTracks(10, 30)))
	ids := w.AddVehicleNodes(newQuietRouter)
	checkSorted := func() {
		t.Helper()
		for i := 1; i < len(w.actives); i++ {
			if w.actives[i-1].id >= w.actives[i].id {
				t.Fatalf("actives out of order at %d: %d >= %d", i, w.actives[i-1].id, w.actives[i].id)
			}
		}
	}
	checkSorted()
	// fail a scattered subset, including both ends
	for _, i := range []int{0, 3, 4, 9} {
		w.setActive(w.nodeByID(ids[i]), false)
	}
	if w.ActiveNodes() != 6 {
		t.Fatalf("active after failures = %d, want 6", w.ActiveNodes())
	}
	checkSorted()
	// double-fail and double-recover must be idempotent
	w.setActive(w.nodeByID(ids[3]), false)
	w.setActive(w.nodeByID(ids[3]), true)
	w.setActive(w.nodeByID(ids[3]), true)
	if w.ActiveNodes() != 7 {
		t.Fatalf("active after recovery = %d, want 7", w.ActiveNodes())
	}
	checkSorted()
}
