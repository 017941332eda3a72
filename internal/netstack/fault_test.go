package netstack

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mobility"
)

// parallelTracks builds n side-by-side tracks active on [0, dur], all
// moving in +x at the same speed so every pair stays in radio range.
func parallelTracks(n int, dur float64) []mobility.Track {
	tracks := make([]mobility.Track, n)
	for i := range tracks {
		y := float64(i) * 30
		tracks[i] = mobility.Track{
			ID: mobility.VehicleID(i),
			Waypoints: []mobility.Waypoint{
				{T: 0, Pos: geom.V(0, y), Speed: 10},
				{T: dur, Pos: geom.V(10*dur, y), Speed: 10},
			},
		}
	}
	return tracks
}

// TestCrashRecoverIsNotChurn pins the fault plane's core membership
// semantics: a crash/recover cycle is invisible to the churn counters —
// the node was down, not gone — and is idempotent at both edges.
func TestCrashRecoverIsNotChurn(t *testing.T) {
	model := mobility.NewPlayback(parallelTracks(2, 30))
	w := NewWorld(Config{Seed: 21}, model)
	w.SetJoinFactory(newChurnRouter)
	ids := w.AddVehicleNodes(newChurnRouter)
	w.Engine().At(5, func() {
		if !w.CrashNode(ids[0]) {
			t.Error("CrashNode failed on a healthy node")
		}
		if w.CrashNode(ids[0]) {
			t.Error("CrashNode succeeded on an already-down node")
		}
		if w.CrashNode(ids[1] + 1000) {
			t.Error("CrashNode succeeded on an unknown node")
		}
	})
	w.Engine().At(10, func() {
		if w.RecoverNode(ids[1]) {
			t.Error("RecoverNode succeeded on a node that never crashed")
		}
		if !w.RecoverNode(ids[0]) {
			t.Error("RecoverNode failed on a crashed node")
		}
		if w.RecoverNode(ids[0]) {
			t.Error("RecoverNode succeeded twice")
		}
	})
	if err := w.Run(15); err != nil {
		t.Fatal(err)
	}
	if w.Joins() != 0 || w.Leaves() != 0 {
		t.Errorf("crash/recover churned membership: joins=%d leaves=%d", w.Joins(), w.Leaves())
	}
	if w.ActiveNodes() != 2 {
		t.Errorf("active = %d after recovery, want 2", w.ActiveNodes())
	}
	c := w.Collector()
	if c.FaultCrashes != 1 || c.FaultRecoveries != 1 {
		t.Errorf("fault counters = %d crashes / %d recoveries, want 1/1",
			c.FaultCrashes, c.FaultRecoveries)
	}
}

// entryOf is n's raw link-table entry for id.
func entryOf(n *node, id NodeID) (Neighbor, bool) {
	for _, e := range n.mon.Snapshot() {
		if e.ID == id {
			return e, true
		}
	}
	return Neighbor{}, false
}

// TestRecoveredNodeHasFreshMonitor checks the recovery contract on the
// reliability plane: a node rejoining after a crash starts from an empty
// link monitor and re-learns its neighborhood from scratch — its first
// post-recovery entry carries a fresh beacon count, not the pre-crash
// evidence.
func TestRecoveredNodeHasFreshMonitor(t *testing.T) {
	model := mobility.NewPlayback(parallelTracks(2, 30))
	w := NewWorld(Config{Seed: 22}, model)
	ids := w.AddVehicleNodes(newChurnRouter)
	n := w.nodeByID(ids[0])
	var preBeacons int
	w.Engine().At(8, func() {
		e, ok := entryOf(n, ids[1])
		if !ok || e.Beacons < 3 {
			t.Errorf("pre-crash monitor entry missing or thin: %+v (ok=%v)", e, ok)
		}
		preBeacons = e.Beacons
		w.CrashNode(ids[0])
	})
	w.Engine().At(12, func() {
		w.RecoverNode(ids[0])
		if n.mon.Len() != 0 {
			t.Errorf("monitor has %d entries immediately after recovery, want 0", n.mon.Len())
		}
	})
	if err := w.Run(15); err != nil {
		t.Fatal(err)
	}
	e, ok := entryOf(n, ids[1])
	if !ok {
		t.Fatal("recovered node never re-learned its neighbor")
	}
	if e.Beacons < 1 || e.Beacons >= preBeacons {
		t.Errorf("post-recovery beacon count = %d, want fresh (1..%d)", e.Beacons, preBeacons-1)
	}
}

// TestCrashWithBeaconsUnreadRecoversEmpty crashes a node whose monitor has
// only recorded its neighbours' beacons — nothing has read its table, and
// the expiry sweep's early-out folds nothing — and recovers it: Reset must
// drop the unread beacons with the table, or the first read after recovery
// folds pre-crash neighbours back in.
func TestCrashWithBeaconsUnreadRecoversEmpty(t *testing.T) {
	w, routers, ids := newTestWorld(t, 3, 100)
	n := w.nodeByID(ids[1])
	w.Engine().At(2.05, func() {
		if len(routers[1].beacons) < 2 {
			t.Errorf("node 1 heard %d beacons before the crash, want some to leave unread", len(routers[1].beacons))
		}
		w.setActive(w.nodeByID(ids[1]), false)
	})
	w.Engine().At(2.06, func() {
		if !w.RecoverNode(ids[1]) {
			t.Error("RecoverNode failed on a node taken down with setActive")
		}
		if got := n.mon.Snapshot(); len(got) != 0 {
			t.Errorf("table right after recovery = %+v, want empty", got)
		}
	})
	if err := w.Run(3.5); err != nil {
		t.Fatal(err)
	}
	nbs := routers[1].API.Neighbors()
	if len(nbs) != 2 {
		t.Fatalf("recovered node re-learned %d neighbours, want 2", len(nbs))
	}
	for _, nb := range nbs {
		if nb.FirstSeen < 2.06 || nb.Beacons > 2 {
			t.Errorf("entry carries pre-crash evidence: %+v", nb)
		}
	}
}

// TestCrashedNodeAgesOutOfLocationService checks the directory semantics:
// a crashed node's entry survives only until the next location refresh
// (the directory is allowed to be staleness-bounded), then disappears,
// and reappears after recovery.
func TestCrashedNodeAgesOutOfLocationService(t *testing.T) {
	model := mobility.NewPlayback(parallelTracks(2, 30))
	w := NewWorld(Config{Seed: 23}, model)
	ids := w.AddVehicleNodes(newChurnRouter)
	// crash between two refresh ticks (they fire on whole seconds)
	w.Engine().At(5.3, func() { w.CrashNode(ids[0]) })
	w.Engine().At(5.6, func() {
		if _, _, ok := w.lookupPosition(ids[0]); !ok {
			t.Error("location entry vanished before the next refresh — staleness contract broken")
		}
	})
	w.Engine().At(6.5, func() {
		if _, _, ok := w.lookupPosition(ids[0]); ok {
			t.Error("location service still answers for a crashed node after a refresh")
		}
	})
	w.Engine().At(10, func() { w.RecoverNode(ids[0]) })
	w.Engine().At(11.5, func() {
		if _, _, ok := w.lookupPosition(ids[0]); !ok {
			t.Error("location service does not answer for a recovered node")
		}
	})
	if err := w.Run(12); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverAfterDepartureLeavesInstead: in an open world, a vehicle
// whose trace ended while its node was crashed must not be resurrected —
// RecoverNode settles it as the departure the sweep could not see (the
// sweep only scans active nodes), exactly one churn leave, no recovery.
func TestRecoverAfterDepartureLeavesInstead(t *testing.T) {
	// track 0's window is [0, 20]
	model := mobility.NewPlayback(staggeredTracks(1))
	w := NewWorld(Config{Seed: 24}, model)
	w.SetJoinFactory(newChurnRouter)
	ids := w.AddVehicleNodes(newChurnRouter)
	w.Engine().At(15, func() { w.CrashNode(ids[0]) })
	w.Engine().At(24, func() {
		if w.RecoverNode(ids[0]) {
			t.Error("RecoverNode resurrected a departed vehicle")
		}
	})
	if err := w.Run(25); err != nil {
		t.Fatal(err)
	}
	if w.Leaves() != 1 {
		t.Errorf("leaves = %d, want exactly 1 (the settled departure)", w.Leaves())
	}
	if w.ActiveNodes() != 0 {
		t.Errorf("%d nodes active after the only vehicle departed", w.ActiveNodes())
	}
	c := w.Collector()
	if c.FaultCrashes != 1 || c.FaultRecoveries != 0 {
		t.Errorf("fault counters = %d crashes / %d recoveries, want 1/0",
			c.FaultCrashes, c.FaultRecoveries)
	}
}
