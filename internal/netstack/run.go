package netstack

import "fmt"

// Run executes the simulation for duration seconds: StartRun,
// AdvanceTo(duration), CompleteRun. The checkpoint plane and bench/ call
// the three themselves to stop at event-free boundaries on the way.
func (w *World) Run(duration float64) error {
	w.StartRun()
	if err := w.AdvanceTo(duration); err != nil {
		return err
	}
	w.CompleteRun()
	return nil
}

// StartRun arms the run's periodic machinery — the mobility tick, per-node
// beaconing and the location-service refresh — without executing any
// events. Calling it more than once is a no-op, so segmented drivers need
// no state of their own.
func (w *World) StartRun() {
	if w.started {
		return
	}
	w.started = true
	w.eng.Ticker(0, tickInterval, 0, nil, w.stepH, 0)
	// per-node beaconing with phase jitter
	w.beaconing = w.needsBeacons()
	if w.beaconing {
		for _, n := range w.nodes {
			w.startBeacon(n)
		}
	}
	w.eng.Ticker(0, locationStaleness, 0, nil, w.locationsH, 0)
}

// AdvanceTo runs the engine until the simulation clock reaches t (events
// at exactly t still fire). Repeated calls with increasing t execute the
// identical event sequence as one call with the final t — the property
// that makes checkpoint boundaries unobservable. StartRun must have run.
func (w *World) AdvanceTo(t float64) error {
	if err := w.eng.Run(t); err != nil {
		return fmt.Errorf("netstack: run: %w", err)
	}
	return nil
}

// CompleteRun finalizes end-of-run accounting (censoring the link audit's
// still-open samples). Call once, after the final AdvanceTo.
func (w *World) CompleteRun() { w.finishAudit() }

// EndRun is a no-op: a world owns no goroutines or other resources to
// release. It remains only because bench/ still pairs every StartRun with
// it.
func (w *World) EndRun() {}

// step is one tick of the world: the phases below, in this order. The
// package comment lists the state each may write.
func (w *World) step() {
	w.readStates()
	if w.placeVehicles() {
		// one epoch for all of the tick's in-cell moves: the radio cache and
		// the kinematic memo see one geometry change, not one per vehicle
		w.grid.AdvanceEpoch()
	}
	// The model advances only now: the snapshot is its state at this tick's
	// instant, and the nodes hold exactly that while the model runs one
	// tick ahead. Nothing below reads the model (the departure sweep goes
	// by the snapshot's stamp), so the rest works on final geometry.
	w.model.Advance(tickInterval)
	if w.joinFactory != nil {
		w.sweepDepartures()
	}
	now := w.eng.Now()
	w.expireNeighbors(now)
	w.auditStep(now)
}

// readStates stamps the tick and takes its snapshot of the mobility model.
func (w *World) readStates() {
	w.stepSeq++
	w.stateBuf = w.model.StatesInto(w.stateBuf[:0])
}

// placeVehicles applies the snapshot, one vehicle at a time in snapshot
// order. In an open world a vehicle without a node joins and one that had
// left re-enters; both change membership and advance the grid epoch
// themselves. Every other vehicle's node gets its kinematics and, if
// active, a staged grid move, committed at once when it crosses a cell;
// the result says whether a staged move changed the grid, for which the
// caller owes one AdvanceEpoch.
func (w *World) placeVehicles() (changed bool) {
	for i := range w.stateBuf {
		s := &w.stateBuf[i]
		n := w.vehicleNode(s.ID)
		if n == nil || n.left {
			if w.joinFactory != nil {
				w.joinVehicle(n, s)
			}
			continue
		}
		n.seenStep = w.stepSeq
		n.pos, n.vel = s.Pos, s.Vel
		if !n.active {
			continue
		}
		moved, mv, cross, ok := w.grid.Stage(int32(n.id), n.pos)
		if !ok {
			w.grid.Update(int32(n.id), n.pos)
			continue
		}
		changed = changed || moved
		if cross {
			w.grid.Commit(mv)
		}
	}
	return changed
}

// sweepDepartures (open worlds only) makes every active vehicle node this
// tick's snapshot did not hold leave: its vehicle left the mobility model
// (trace window closed, lifetime expired, drove off the map). leaveNode
// splices n out of w.actives, so the index only advances past nodes that
// stay.
func (w *World) sweepDepartures() {
	for i := 0; i < len(w.actives); {
		if n := w.actives[i]; n.vehID >= 0 && n.seenStep != w.stepSeq {
			w.leaveNode(n)
			continue
		}
		i++
	}
}

// expireNeighbors sweeps the active nodes' link tables in node-ID order and
// tells each router which neighbors timed out. The callbacks may transmit
// but never change membership, so w.actives is stable under the loop. The
// expired IDs go into one reused buffer; each node's are ranged over as a
// local slice, so nothing a callback does can move them.
func (w *World) expireNeighbors(now float64) {
	for _, n := range w.actives {
		gone := n.mon.AppendExpired(w.expired[:0], now)
		w.expired = gone
		for _, id := range gone {
			n.router.OnNeighborExpired(id)
		}
	}
}
