package netstack

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mobility"
)

// gapModel is a mobility model whose vehicle 1 drops out of the snapshot on
// [gapFrom, gapTo) and comes back under the same VehicleID at a different
// place — a trace with a hole in one track. Vehicle 0 is parked within
// radio range of both places.
type gapModel struct {
	t              float64
	gapFrom, gapTo float64
	before, after  geom.Vec2
}

func (m *gapModel) Advance(dt float64) { m.t += dt }

func (m *gapModel) Len() int { return len(m.States()) }

func (m *gapModel) States() []mobility.State { return m.StatesInto(nil) }

func (m *gapModel) StatesInto(dst []mobility.State) []mobility.State {
	dst = append(dst, mobility.State{ID: 0, Class: mobility.Car})
	switch {
	case m.t < m.gapFrom:
		dst = append(dst, mobility.State{ID: 1, Pos: m.before, Class: mobility.Car})
	case m.t >= m.gapTo:
		dst = append(dst, mobility.State{ID: 1, Pos: m.after, Class: mobility.Car})
	}
	return dst
}

// expiryRouter is a beaconing router that records which neighbours expired.
type expiryRouter struct {
	Base
	expired []NodeID
}

func (r *expiryRouter) Name() string               { return "expiry-test" }
func (r *expiryRouter) HandlePacket(p *Packet)     { r.API.Release(p) }
func (r *expiryRouter) Originate(NodeID, int)      {}
func (r *expiryRouter) OnNeighborExpired(i NodeID) { r.expired = append(r.expired, i) }

// TestVehicleReentryReusesNode drives the one membership path no trace in
// the tree takes: a vehicle the model stops reporting and later reports
// again under the same VehicleID. Its node must leave, then come back as
// the same node — same NodeID, same router, its beacon ticker still armed —
// at the position the model reports, counted as one leave and one join,
// with the active set mirroring the model on both sides of the gap.
func TestVehicleReentryReusesNode(t *testing.T) {
	// the gap outlasts the neighbour TTL, so vehicle 0's entry for the
	// departed node expires and is re-learned from a beacon after re-entry
	model := &gapModel{gapFrom: 5, gapTo: 9, before: geom.V(100, 0), after: geom.V(150, 0)}
	w := NewWorld(Config{Seed: 21}, model)
	w.SetJoinFactory(func() Router { return &expiryRouter{} })
	watcher := &expiryRouter{}
	routers := []Router{watcher, &expiryRouter{}}
	ids := w.AddVehicleNodes(func() Router {
		r := routers[0]
		routers = routers[1:]
		return r
	})
	if len(ids) != 2 {
		t.Fatalf("initial nodes = %d, want 2", len(ids))
	}
	back := ids[1]

	// TestWorldMembershipInvariant's property, probed away from the gap's
	// edges: active nodes mirror the model's vehicles
	for _, at := range []float64{2.05, 7.05, 12.05} {
		w.Engine().At(at, func() {
			if got, want := w.ActiveNodes(), model.Len(); got != want {
				t.Errorf("t=%.2f: %d active nodes, model has %d vehicles", w.Engine().Now(), got, want)
			}
		})
	}
	w.Engine().At(7.05, func() {
		if _, ok := w.PositionOf(back); ok {
			t.Error("PositionOf answers for a node inside its gap")
		}
		if w.Joins() != 0 || w.Leaves() != 1 {
			t.Errorf("inside the gap: joins=%d leaves=%d, want 0/1", w.Joins(), w.Leaves())
		}
	})
	if err := w.Run(12.5); err != nil {
		t.Fatal(err)
	}

	if w.Nodes() != 2 {
		t.Fatalf("re-entry created a node: %d nodes, want 2", w.Nodes())
	}
	if n := w.vehicleNode(1); n == nil || n.id != back {
		t.Fatalf("vehicle 1 maps to node %v, want %d", n, back)
	}
	if w.Joins() != 1 || w.Leaves() != 1 || w.ActiveNodes() != 2 {
		t.Errorf("joins=%d leaves=%d active=%d, want 1/1/2", w.Joins(), w.Leaves(), w.ActiveNodes())
	}
	if c := w.Collector(); c.NodeJoins != 1 || c.NodeLeaves != 1 {
		t.Errorf("collector joins/leaves = %d/%d, want 1/1", c.NodeJoins, c.NodeLeaves)
	}
	if pos, ok := w.PositionOf(back); !ok || pos != model.after {
		t.Errorf("position after re-entry = %v (ok=%v), want %v", pos, ok, model.after)
	}
	// back in the grid where the model put it: vehicle 0 lost the entry
	// during the gap and holds one again, from a beacon sent at the new place
	if len(watcher.expired) != 1 || watcher.expired[0] != back {
		t.Errorf("neighbour expiries seen by vehicle 0 = %v, want [%d]", watcher.expired, back)
	}
	nb, ok := watcher.API.LinkState(back)
	if !ok {
		t.Fatal("vehicle 0 never heard the re-entered node beacon")
	}
	if nb.Pos != model.after || nb.LastSeen < model.gapTo {
		t.Errorf("neighbour entry pos=%v lastSeen=%.2f, want %v heard after t=%.0f", nb.Pos, nb.LastSeen, model.after, model.gapTo)
	}
}
