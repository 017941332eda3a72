package netstack

import (
	"sort"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/linkstate"
	"github.com/vanetlab/relroute/internal/mobility"
)

// kindOf maps a mobility vehicle class to the kind of its node.
func kindOf(c mobility.Class) NodeKind {
	if c == mobility.Bus {
		return BusNode
	}
	return Vehicle
}

// AddVehicleNodes creates one node per vehicle currently in the mobility
// model, attaching a fresh router from the factory. Buses become BusNode
// kind. It returns the created node IDs in vehicle order.
func (w *World) AddVehicleNodes(factory RouterFactory) []NodeID {
	states := w.model.States()
	ids := make([]NodeID, 0, len(states))
	for _, s := range states {
		ids = append(ids, w.addNode(kindOf(s.Class), s.Pos, s.Vel, factory(), s.ID))
	}
	return ids
}

// AddStaticNode creates a fixed node (e.g. an RSU) at pos.
func (w *World) AddStaticNode(kind NodeKind, pos geom.Vec2, r Router) NodeID {
	return w.addNode(kind, pos, geom.Vec2{}, r, -1)
}

func (w *World) addNode(kind NodeKind, pos, vel geom.Vec2, r Router, vehID mobility.VehicleID) NodeID {
	id := NodeID(len(w.nodes))
	n := &node{
		id: id, kind: kind, router: r,
		mon: *linkstate.NewMonitor(neighborTTL, w.ch.MeanRange(), w.est),
		pos: pos, vel: vel,
		rngSeed: w.eng.RandSeed(),
		vehID:   vehID,
	}
	w.nodes = append(w.nodes, n)
	if vehID >= 0 {
		for int(vehID) >= len(w.byVeh) {
			w.byVeh = append(w.byVeh, nil)
		}
		w.byVeh[vehID] = n
	}
	n.heard, _ = r.(BeaconListener)
	w.setActive(n, true)
	r.Attach(&API{world: w, node: n})
	return id
}

// vehicleNode maps a mobility vehicle ID to its node, nil if the vehicle
// never joined.
func (w *World) vehicleNode(id mobility.VehicleID) *node {
	if id < 0 || int(id) >= len(w.byVeh) {
		return nil
	}
	return w.byVeh[id]
}

// SetJoinFactory switches the world to open-world membership: vehicles
// that appear in the mobility model after the run started are given a
// node running a fresh router from factory, and vehicles that disappear
// from the model have their node leave — removed from the spatial index
// and silenced, so the radio cache, neighbor tables, and flows observe
// the departure instead of a parked phantom. Call before Run.
func (w *World) SetJoinFactory(factory RouterFactory) {
	w.joinFactory = factory
}

// Joins returns how many nodes joined the world mid-run.
func (w *World) Joins() int { return w.joins }

// Leaves returns how many nodes left the world mid-run.
func (w *World) Leaves() int { return w.leaves }

// ActiveNodes returns the number of currently active nodes (joined, not
// departed, not failure-injected).
func (w *World) ActiveNodes() int { return len(w.actives) }

// setActive is the one place a node's presence on the air changes: the
// flag, its slot in the ID-sorted active slice and the spatial index (at
// n.pos) move together, and the index advances the grid epoch, so every
// cached radio neighborhood sees the change. A new node carries the highest
// ID, so the common insert appends.
func (w *World) setActive(n *node, active bool) {
	n.active = active
	i := sort.Search(len(w.actives), func(i int) bool { return w.actives[i].id >= n.id })
	in := i < len(w.actives) && w.actives[i] == n
	if active {
		if !in {
			w.actives = append(w.actives, nil)
			copy(w.actives[i+1:], w.actives[i:])
			w.actives[i] = n
		}
		w.grid.Update(int32(n.id), n.pos)
	} else {
		if in {
			w.actives = append(w.actives[:i], w.actives[i+1:]...)
		}
		w.grid.Remove(int32(n.id))
	}
}

// joinVehicle admits the vehicle behind s mid-run. One the world has never
// seen (n == nil) gets a node with a fresh router from the join factory
// and, when the run beacons, its own beacon ticker. One that left and is
// reported again (a gap in its trace) gets its node back as it was — ID,
// router, link table, the beacon ticker that kept firing unsent — at the
// reported place.
func (w *World) joinVehicle(n *node, s *mobility.State) {
	if n == nil {
		n = w.nodes[w.addNode(kindOf(s.Class), s.Pos, s.Vel, w.joinFactory(), s.ID)]
		if w.beaconing {
			w.startBeacon(n)
		}
	} else {
		n.left = false
		n.pos, n.vel = s.Pos, s.Vel
		w.setActive(n, true)
	}
	n.seenStep = w.stepSeq
	w.joins++
	w.col.NodeJoins++
}

// leaveNode removes a departed vehicle's node from the world: it vanishes
// from the spatial index and neither transmits nor receives. Neighbor
// entries pointing at it expire through the normal TTL sweep, surfacing
// OnNeighborExpired to the protocols exactly like any other link break.
func (w *World) leaveNode(n *node) {
	n.left = true
	w.setActive(n, false)
	w.leaves++
	w.col.NodeLeaves++
}
