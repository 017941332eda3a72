package netstack

import "math/rand"

// This file is the world-side half of the fault plane: crash/recover
// semantics on top of setActive, plus the hook setters the
// internal/faults engine wires its schedule through. Every hook is nil
// until a fault schedule installs it, so fault-free runs cost one nil check
// per call site and draw no extra randomness.

// CrashNode fails a node: it goes radio-dark (setActive false — out
// of the spatial index, neither transmitting nor receiving), its queued
// MAC frames are discarded without failure upcalls (a dead radio reports
// nothing), and it ages out of the location service at the next refresh.
// Unlike a departure, a crash does not count as a churn leave: the node
// is still a member of the world, just down. It reports whether the node
// actually crashed (false if unknown, already down, or departed).
func (w *World) CrashNode(id NodeID) bool {
	n := w.nodeByID(id)
	if n == nil || !n.active || n.left {
		return false
	}
	w.setActive(n, false)
	w.mac.Flush(int32(id))
	w.col.FaultCrashes++
	return true
}

// RecoverNode brings a crashed node back: it re-enters the spatial index
// at its current mobility position with a fresh linkstate Monitor — no
// stale neighbors, no stale feedback evidence; everything must be
// re-learned from beacons. Its beacon ticker (armed once at startup or
// join) resumes naturally, since sendBeacon only gates on active. A
// recovery is not a churn join. If the node's vehicle departed the
// mobility model while it was down (open worlds), the node leaves
// instead of recovering — exactly as if the departure sweep had caught
// it — and RecoverNode reports false.
func (w *World) RecoverNode(id NodeID) bool {
	n := w.nodeByID(id)
	if n == nil || n.active || n.left {
		return false
	}
	if w.joinFactory != nil && n.vehID >= 0 && n.seenStep != w.stepSeq {
		// crashed vehicle whose trace/lifetime ended while it was down:
		// the departure sweep only scans actives, so settle it here
		w.leaveNode(n)
		return false
	}
	n.mon.Reset()
	w.setActive(n, true)
	w.col.FaultRecoveries++
	return true
}

// SetLinkFault installs a per-link loss hook on the MAC transmit path:
// fn(from, to) returns an extra loss probability the fault plane imposes
// on that link right now (0 clean, ≥1 severed with no RNG draw, in
// between one extra uniform after the channel draw). fn must be
// allocation-free; it runs once per candidate receiver per frame.
func (w *World) SetLinkFault(fn func(from, to int32) float64) {
	w.mac.SetLinkFault(fn)
}

// SetBeaconFilter installs a beacon-suppression hook: when fn returns
// true the HELLO is silently dropped before it reaches the MAC. Any
// randomness must come from the supplied rng — the beaconing node's own
// stream — so suppression perturbs no other component.
func (w *World) SetBeaconFilter(fn func(id NodeID, rng *rand.Rand) bool) {
	w.beaconFilter = fn
}

// SetFaultWindow installs the predicate classifying simulation times as
// inside a fault window. The world consults it where traffic enters the
// stack (originations, control transmissions) so the collector can split
// accounting into inside/outside-window halves.
func (w *World) SetFaultWindow(fn func(now float64) bool) {
	w.faultWindow = fn
}

// inFaultWindow reports whether a fault schedule is installed and puts the
// current instant inside one of its windows.
func (w *World) inFaultWindow() bool {
	return w.faultWindow != nil && w.faultWindow(w.eng.Now())
}

// SetDeliveryHook installs a callback invoked on every first-time data
// delivery with the packet's origination time (the fault plane derives
// fault-window PDR and time-to-reroute from it).
func (w *World) SetDeliveryHook(fn func(created float64)) {
	w.onFirstDelivery = fn
}

// SetBeaconHeardHook installs a callback invoked whenever any node's
// beacon is received, with the beaconing node's ID (the fault plane
// closes recovery-latency clocks on it).
func (w *World) SetBeaconHeardHook(fn func(id NodeID)) {
	w.faultBeaconHeard = fn
}
