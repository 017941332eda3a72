// Package faults is the deterministic failure-injection plane: a typed,
// seeded fault schedule executed from the simulation event queue. The
// source paper motivates reliable routing with infrastructure failures —
// "disasters like hurricane and earthquake" — and the comparative
// literature (arXiv:1311.1378 on protocol evaluation, arXiv:1704.07519
// on battery-depleted roadside relays) measures protocols by how
// gracefully they degrade; this package makes that degradation a
// first-class, reproducible experiment axis.
//
// A Spec declares typed events (node crashes and recoveries, RSU
// blackouts, geometric jamming zones, beacon-suppression windows, a
// partition along a roadnet cut); Install schedules them on the world's
// engine and wires the world's fault hooks. Everything stays inside the
// determinism contract: every event fires on the single-threaded event
// path, target selection draws from a dedicated stream (scenario seed
// + 13) that fault-free runs never materialize, jamming draws exactly
// one extra uniform per affected candidate receiver (severed links draw
// nothing), and the per-frame dispatch path allocates nothing.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/netstack"
)

// Kind enumerates the fault event types.
type Kind uint8

const (
	// NodeCrash takes the listed nodes radio-dark at At; Until > At
	// schedules the matching recovery (each node rejoins with a fresh
	// linkstate monitor), Until == 0 means they stay down.
	NodeCrash Kind = iota + 1
	// NodeRecover explicitly recovers the listed nodes at At (for
	// schedules that crash and recover in separate events).
	NodeRecover
	// RSUBlackout crashes every RSU in the world at At — the paper's
	// disaster scenario. Until > At restores them.
	RSUBlackout
	// JamZone adds Loss to every link with an endpoint inside Region
	// during [At, Until) — localized interference.
	JamZone
	// BeaconSuppression drops each HELLO with probability Prob during
	// [At, Until) — a degraded control channel.
	BeaconSuppression
	// Partition severs every link crossing the vertical roadnet cut
	// x = CutX during [At, Until) — a hard geographic split.
	Partition
)

// String names the kind for logs and errors.
func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "NodeCrash"
	case NodeRecover:
		return "NodeRecover"
	case RSUBlackout:
		return "RSUBlackout"
	case JamZone:
		return "JamZone"
	case BeaconSuppression:
		return "BeaconSuppression"
	case Partition:
		return "Partition"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one typed fault in a schedule. At is when it takes effect;
// Until is the recovery/expiry time (see each Kind for its zero-value
// meaning — windowed kinds treat Until <= At as "until the end of the
// run"). Only the fields a kind reads need to be set.
type Event struct {
	Kind  Kind
	At    float64
	Until float64

	Nodes  []netstack.NodeID // NodeCrash / NodeRecover targets
	Region geom.Rect         // JamZone
	Loss   float64           // JamZone: added loss probability in (0,1]
	Prob   float64           // BeaconSuppression: drop probability
	CutX   float64           // Partition: vertical cut coordinate
}

// Spec is a complete fault schedule for one run.
type Spec struct {
	Events []Event
}

// interval is one merged fault window [From, To).
type interval struct {
	From, To float64
}

// zoneState is a JamZone's runtime state; active is flipped by the
// scheduled window-edge events, never read off the event path.
type zoneState struct {
	region geom.Rect
	loss   float64
	active bool
}

// cutState is a Partition's runtime state.
type cutState struct {
	x      float64
	active bool
}

// suppState is a BeaconSuppression window; it is evaluated against the
// clock directly (no state flips) because the beacon filter already
// receives now via the world.
type suppState struct {
	from, to float64
	prob     float64
}

// Engine executes one installed Spec against one world. All state is
// confined to the single-threaded event path.
type Engine struct {
	world *netstack.World
	col   *metrics.Collector

	zones []zoneState
	cuts  []cutState
	supps []suppState
	// activeGeo counts currently active zones+cuts so the per-frame link
	// hook exits on one integer compare when no geometry fault is live.
	activeGeo int

	// windows are the merged fault intervals the degradation metrics
	// classify against.
	windows []interval

	// pendingReroute holds crash timestamps whose "next delivery" has
	// not happened yet; the first delivery after a crash closes all of
	// them (time-to-reroute).
	pendingReroute []float64
	// awaitBeacon maps a recovered node to its recovery time until some
	// neighbor hears it beacon again (recovery latency).
	awaitBeacon map[netstack.NodeID]float64
}

// Install schedules spec's events on w's engine and wires the world's
// fault hooks. Call after the world is fully populated (topology and
// flows installed) and before Run; events scheduled here fire before
// same-timestamp events scheduled during the run, so a crash at t takes
// effect before that tick's traffic. duration bounds open windows and
// the control-rate accounting.
func Install(w *netstack.World, spec Spec, duration float64) (*Engine, error) {
	e := &Engine{world: w, col: w.Collector()}
	eng := w.Engine()
	for i, ev := range spec.Events {
		ev := ev
		if !(ev.At >= 0) || math.IsNaN(ev.Until) {
			return nil, fmt.Errorf("faults: event %d: %v needs At >= 0 and a numeric Until, got [%v, %v)", i, ev.Kind, ev.At, ev.Until)
		}
		switch ev.Kind {
		case NodeCrash:
			e.addWindow(ev.At, ev.Until, duration)
			nodes := ev.Nodes
			eng.At(ev.At, func() { e.crash(nodes) })
			if ev.Until > ev.At {
				eng.At(ev.Until, func() { e.recover(nodes) })
			}
		case NodeRecover:
			nodes := ev.Nodes
			eng.At(ev.At, func() { e.recover(nodes) })
		case RSUBlackout:
			e.addWindow(ev.At, ev.Until, duration)
			// resolve targets now: the RSU population is static
			nodes := w.NodeIDs(netstack.RSU)
			eng.At(ev.At, func() { e.crash(nodes) })
			if ev.Until > ev.At {
				eng.At(ev.Until, func() { e.recover(nodes) })
			}
		case JamZone:
			if ev.Loss <= 0 {
				return nil, fmt.Errorf("faults: event %d: JamZone needs Loss > 0", i)
			}
			from, to := e.addWindow(ev.At, ev.Until, duration)
			zi := len(e.zones)
			e.zones = append(e.zones, zoneState{region: ev.Region, loss: ev.Loss})
			eng.At(from, func() { e.zones[zi].active = true; e.activeGeo++ })
			eng.At(to, func() { e.zones[zi].active = false; e.activeGeo-- })
		case BeaconSuppression:
			if ev.Prob <= 0 || ev.Prob > 1 {
				return nil, fmt.Errorf("faults: event %d: BeaconSuppression needs Prob in (0,1]", i)
			}
			from, to := e.addWindow(ev.At, ev.Until, duration)
			e.supps = append(e.supps, suppState{from: from, to: to, prob: ev.Prob})
		case Partition:
			from, to := e.addWindow(ev.At, ev.Until, duration)
			ci := len(e.cuts)
			e.cuts = append(e.cuts, cutState{x: ev.CutX})
			eng.At(from, func() { e.cuts[ci].active = true; e.activeGeo++ })
			eng.At(to, func() { e.cuts[ci].active = false; e.activeGeo-- })
		default:
			return nil, fmt.Errorf("faults: event %d: unknown kind %v", i, ev.Kind)
		}
	}
	e.mergeWindows()
	e.col.RunTime = duration
	for _, iv := range e.windows {
		to := iv.To
		if to > duration {
			to = duration
		}
		if to > iv.From {
			e.col.FaultTime += to - iv.From
		}
	}
	// Wire only the hooks this schedule needs: fault-free call sites
	// stay nil-check cheap and, more importantly, absent hooks cannot
	// perturb RNG streams or allocation behaviour.
	if len(e.zones) > 0 || len(e.cuts) > 0 {
		w.SetLinkFault(e.linkLoss)
	}
	if len(e.supps) > 0 {
		w.SetBeaconFilter(e.beaconFilter)
	}
	e.awaitBeacon = make(map[netstack.NodeID]float64)
	w.SetBeaconHeardHook(e.beaconHeard)
	w.SetDeliveryHook(e.onDelivery)
	w.SetFaultWindow(e.InWindow)
	return e, nil
}

// addWindow normalizes an event's [At, Until) to a concrete interval —
// Until <= At means "until the end of the run" — records it for the
// degradation metrics, and returns it.
func (e *Engine) addWindow(at, until, duration float64) (from, to float64) {
	if until <= at {
		until = duration
	}
	e.windows = append(e.windows, interval{From: at, To: until})
	return at, until
}

// mergeWindows sorts and coalesces overlapping fault intervals so
// InWindow is a short linear scan and FaultTime never double-counts.
func (e *Engine) mergeWindows() {
	if len(e.windows) == 0 {
		return
	}
	sort.Slice(e.windows, func(i, j int) bool { return e.windows[i].From < e.windows[j].From })
	merged := e.windows[:1]
	for _, iv := range e.windows[1:] {
		last := &merged[len(merged)-1]
		if iv.From <= last.To {
			if iv.To > last.To {
				last.To = iv.To
			}
			continue
		}
		merged = append(merged, iv)
	}
	e.windows = merged
}

// InWindow reports whether t falls inside any fault window. The merged
// interval list is tiny (profiles declare a handful of events), so a
// linear scan beats anything fancier and allocates nothing.
func (e *Engine) InWindow(t float64) bool {
	for _, iv := range e.windows {
		if t >= iv.From && t < iv.To {
			return true
		}
	}
	return false
}

// crash takes the listed nodes down, opening one time-to-reroute clock
// if any of them actually crashed.
func (e *Engine) crash(nodes []netstack.NodeID) {
	any := false
	for _, id := range nodes {
		if e.world.CrashNode(id) {
			any = true
		}
	}
	if any {
		e.pendingReroute = append(e.pendingReroute, e.world.Engine().Now())
	}
}

// recover brings the listed nodes back, opening a recovery-latency clock
// per node that actually rejoined.
func (e *Engine) recover(nodes []netstack.NodeID) {
	now := e.world.Engine().Now()
	for _, id := range nodes {
		if e.world.RecoverNode(id) {
			e.awaitBeacon[id] = now
		}
	}
}

// linkLoss is the MAC's per-candidate fault hook: the extra loss on the
// (from, to) link right now. Partition cuts sever (probability 1, no
// RNG draw); jam zones return their configured loss when either endpoint
// is inside the region. Zero-allocation; one integer compare when no
// geometry fault is active.
func (e *Engine) linkLoss(from, to int32) float64 {
	if e.activeGeo == 0 {
		return 0
	}
	pf, okF := e.world.PositionOf(netstack.NodeID(from))
	pt, okT := e.world.PositionOf(netstack.NodeID(to))
	if !okF || !okT {
		return 0
	}
	for i := range e.cuts {
		c := &e.cuts[i]
		if c.active && (pf.X-c.x)*(pt.X-c.x) < 0 {
			return 1
		}
	}
	loss := 0.0
	for i := range e.zones {
		z := &e.zones[i]
		if z.active && z.loss > loss && (z.region.Contains(pf) || z.region.Contains(pt)) {
			loss = z.loss
		}
	}
	return loss
}

// beaconFilter drops a HELLO with the suppression probability of the
// window covering now, drawing one uniform from the beaconing node's own
// stream — only inside a window, so runs outside windows draw nothing.
func (e *Engine) beaconFilter(_ netstack.NodeID, rng *rand.Rand) bool {
	now := e.world.Engine().Now()
	for _, s := range e.supps {
		if now >= s.from && now < s.to {
			return rng.Float64() < s.prob
		}
	}
	return false
}

// onDelivery classifies a first-time delivery against the fault windows
// (fault-window PDR counts by origination time) and closes any open
// time-to-reroute clocks: the first delivery after a crash is the
// evidence the surviving topology carries traffic again.
func (e *Engine) onDelivery(created float64) {
	if e.InWindow(created) {
		e.col.DataDeliveredFault++
	}
	if len(e.pendingReroute) > 0 {
		now := e.world.Engine().Now()
		for _, t := range e.pendingReroute {
			e.col.OnReroute(now - t)
		}
		e.pendingReroute = e.pendingReroute[:0]
	}
}

// beaconHeard closes the recovery-latency clock of a recovered node the
// first time any neighbor hears it beacon again.
func (e *Engine) beaconHeard(id netstack.NodeID) {
	t0, ok := e.awaitBeacon[id]
	if !ok {
		return
	}
	delete(e.awaitBeacon, id)
	e.col.OnRecoveryLatency(e.world.Engine().Now() - t0)
}
