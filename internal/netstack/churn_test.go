package netstack

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mobility"
)

// churnRouter is a minimal beaconing router that rebroadcasts data once.
type churnRouter struct {
	Base
	seen map[uint64]bool
}

func newChurnRouter() Router { return &churnRouter{seen: make(map[uint64]bool)} }

func (r *churnRouter) Originate(dst NodeID, size int) {
	pkt := &Packet{
		UID: r.API.NewUID(), Kind: KindData,
		Src: r.API.Self(), Dst: dst, TTL: 6, Size: size, Created: r.API.Now(),
	}
	r.API.Send(Broadcast, pkt)
}

func (r *churnRouter) HandlePacket(pkt *Packet) {
	if r.seen[pkt.UID] {
		r.API.Release(pkt)
		return
	}
	r.seen[pkt.UID] = true
	if pkt.Dst == r.API.Self() {
		r.API.Deliver(pkt)
		return
	}
	pkt.TTL--
	if !pkt.Expired() {
		r.API.Send(Broadcast, pkt)
	}
}

// staggeredTracks builds n straight-line tracks whose active windows open
// and close at different times: track i exists on [2*i, 2*i+20].
func staggeredTracks(n int) []mobility.Track {
	tracks := make([]mobility.Track, n)
	for i := range tracks {
		start := 2 * float64(i)
		y := float64(i) * 60
		tracks[i] = mobility.Track{
			ID: mobility.VehicleID(i),
			Waypoints: []mobility.Waypoint{
				{T: start, Pos: geom.V(0, y), Speed: 12},
				{T: start + 20, Pos: geom.V(240, y), Speed: 12},
			},
		}
	}
	return tracks
}

// TestWorldMembershipInvariant drives an open world from a trace whose
// tracks open and close mid-run, and checks after every simulated second
// that the set of active vehicle nodes exactly mirrors the mobility
// model's active vehicle set — nodes join when a track starts and leave
// when it ends, with no parked phantoms in between.
func TestWorldMembershipInvariant(t *testing.T) {
	const n = 10
	model := mobility.NewPlayback(staggeredTracks(n))
	w := NewWorld(Config{Seed: 7}, model)
	w.SetJoinFactory(newChurnRouter)
	// only tracks active at t=0 become initial nodes
	initial := w.AddVehicleNodes(newChurnRouter)
	if len(initial) != 1 {
		t.Fatalf("initial nodes = %d, want 1 (only track 0 is active at t=0)", len(initial))
	}
	// flows keep running across membership changes: the source leaves
	// mid-flow (its window closes at t=20) and later packets must be
	// silently skipped, not crash the stack
	w.AddFlow(initial[0], initial[0]+1, 5, 2.0, 12, 256)

	// probe the invariant just after the mobility tick of every odd
	// second (track windows open and close on even seconds, so odd-second
	// probes are far from any boundary the tick clock could straddle)
	for s := 1; s <= 39; s += 2 {
		w.Engine().At(float64(s)+0.05, func() {
			got := w.ActiveNodes()
			want := model.Len()
			if got != want {
				t.Errorf("t=%.1f: %d active nodes, model has %d active vehicles",
					w.Engine().Now(), got, want)
			}
		})
	}
	if err := w.Run(40.5); err != nil {
		t.Fatal(err)
	}
	// every track joined (n-1 mid-run) and every track's window closed
	if w.Joins() != n-1 {
		t.Errorf("joins = %d, want %d", w.Joins(), n-1)
	}
	if w.Leaves() != n {
		t.Errorf("leaves = %d, want %d", w.Leaves(), n)
	}
	if w.ActiveNodes() != 0 {
		t.Errorf("%d nodes still active after every window closed", w.ActiveNodes())
	}
	sum := w.Collector().Summarize("churn-test", "staggered")
	if sum.Joins != n-1 || sum.Leaves != n {
		t.Errorf("summary joins/leaves = %d/%d", sum.Joins, sum.Leaves)
	}
}

// TestClosedWorldHasNoMembershipChurn pins the compatibility contract:
// without a join factory and with a closed mobility model, the membership
// machinery observes nothing.
func TestClosedWorldHasNoMembershipChurn(t *testing.T) {
	tracks := make([]mobility.Track, 4)
	for i := range tracks {
		tracks[i] = mobility.Track{
			ID: mobility.VehicleID(i),
			Waypoints: []mobility.Waypoint{
				{T: 0, Pos: geom.V(float64(i)*50, 0), Speed: 10},
				{T: 100, Pos: geom.V(float64(i)*50+1000, 0), Speed: 10},
			},
		}
	}
	w := NewWorld(Config{Seed: 3}, mobility.NewPlayback(tracks))
	ids := w.AddVehicleNodes(newChurnRouter)
	w.AddFlow(ids[0], ids[3], 1, 0.5, 8, 200)
	// run past the tracks' windows (they close at t=100): without a join
	// factory the world keeps its legacy fixed population — no leaves,
	// Summary.Joins/Leaves stay zero as documented
	if err := w.Run(120); err != nil {
		t.Fatal(err)
	}
	if w.Joins() != 0 || w.Leaves() != 0 {
		t.Fatalf("closed world churned: joins=%d leaves=%d", w.Joins(), w.Leaves())
	}
	if w.ActiveNodes() != len(tracks) {
		t.Fatalf("active = %d", w.ActiveNodes())
	}
}

// TestDepartedNodesVanishFromOracles checks that a departed vehicle is
// gone from every observation layer: PositionOf/VelocityOf and the
// idealised location service must stop answering for it (the phantom fix
// at the oracle layers, not just the mobility snapshot).
func TestDepartedNodesVanishFromOracles(t *testing.T) {
	// track 0 exists on [0, 20]; run far past that
	model := mobility.NewPlayback(staggeredTracks(1))
	w := NewWorld(Config{Seed: 5}, model)
	w.SetJoinFactory(newChurnRouter)
	ids := w.AddVehicleNodes(newChurnRouter)
	var during, after bool
	w.Engine().At(10, func() {
		_, during = w.PositionOf(ids[0])
	})
	if err := w.Run(25); err != nil {
		t.Fatal(err)
	}
	if !during {
		t.Error("PositionOf failed while the vehicle was active")
	}
	if _, after = w.PositionOf(ids[0]); after {
		t.Error("PositionOf still answers for a departed node")
	}
	if _, ok := w.VelocityOf(ids[0]); ok {
		t.Error("VelocityOf still answers for a departed node")
	}
	if _, _, ok := w.lookupPosition(ids[0]); ok {
		t.Error("location service still answers for a departed node")
	}
}

// TestAddVehicleFlowResolvesLateJoiners checks the open-world flow
// primitive: a flow between vehicles that do not exist at wiring time
// starts delivering once both have joined, and falls silent when the
// source departs.
func TestAddVehicleFlowResolvesLateJoiners(t *testing.T) {
	// tracks 1 and 2 join at t=2 and t=4 and overlap until t=22
	model := mobility.NewPlayback(staggeredTracks(3))
	w := NewWorld(Config{Seed: 9}, model)
	w.SetJoinFactory(newChurnRouter)
	w.AddVehicleNodes(newChurnRouter)
	// wire before either endpoint exists; packets every second from t=1
	w.AddVehicleFlow(1, 2, 1, 1.0, 30, 128)
	if err := w.Run(30); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataSent == 0 {
		t.Fatal("no packets originated after both endpoints joined")
	}
	// sends only happen while the source (window [2,22]) is active and the
	// destination (window [4,24]) has joined: strictly fewer than 30
	if c.DataSent >= 30 {
		t.Fatalf("sent %d packets; expected the out-of-membership ones skipped", c.DataSent)
	}
}

// TestFailureInjectionIsNotDeparture checks that SetNodeActive (failure
// injection) and open-world leave detection do not interfere: a failed
// node whose vehicle is still in the model must stay down, not be
// resurrected by the rejoin path.
func TestFailureInjectionIsNotDeparture(t *testing.T) {
	model := mobility.NewPlayback(staggeredTracks(1))
	w := NewWorld(Config{Seed: 11}, model)
	w.SetJoinFactory(newChurnRouter)
	ids := w.AddVehicleNodes(newChurnRouter)
	w.Engine().At(5, func() { w.setActive(w.nodeByID(ids[0]), false) })
	if err := w.Run(10); err != nil {
		t.Fatal(err)
	}
	if w.ActiveNodes() != 0 {
		t.Fatalf("failed node resurrected: %d active", w.ActiveNodes())
	}
	if w.Joins() != 0 {
		t.Fatalf("failure injection counted as %d joins", w.Joins())
	}
}
