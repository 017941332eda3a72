// Package metrics collects the quantities every experiment reports: packet
// delivery ratio, end-to-end delay, control overhead, MAC collisions, path
// lifetime, and route-repair counts. One Collector is shared per scenario
// run so protocol categories are compared on identical accounting.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"github.com/vanetlab/relroute/internal/digest"
)

// Collector accumulates counters for one simulation run. It is not safe
// for concurrent use; the single-threaded engine owns it.
type Collector struct {
	// data plane
	DataSent      int // data packets originated by applications
	DataDelivered int // data packets that reached their destination
	DataDuplicate int // duplicate deliveries suppressed at destination
	DataDropped   int // data packets dropped (TTL, queue, no route)
	DataForwarded int // data transmissions by intermediate nodes

	// control plane, keyed by packet type name (RREQ, RREP, HELLO, ...)
	Control map[string]int
	// ControlBytes accumulates control packet sizes.
	ControlBytes int
	// DataBytes accumulates data packet sizes (all transmissions).
	DataBytes int

	// MAC layer
	MACTransmits   int // frames handed to the radio
	MACDelivered   int // frame receptions delivered up the stack
	MACCollisions  int // receptions destroyed by collisions
	MACChannelLoss int // receptions lost to channel fading

	// routing events
	RouteDiscoveries int // discovery rounds initiated
	RouteBreaks      int // links/routes detected broken
	RouteRepairs     int // successful re-establishments

	// open-world membership (zero in closed-world scenarios)
	NodeJoins  int // nodes that joined the world mid-run
	NodeLeaves int // nodes that left the world mid-run

	// fault plane (all zero when no fault profile is installed)
	FaultCrashes       int     // nodes crashed by fault events
	FaultRecoveries    int     // crashed nodes that came back
	DataSentFault      int     // data packets originated inside a fault window
	DataDeliveredFault int     // deliveries of packets originated inside a fault window
	ControlFault       int     // control transmissions inside fault windows
	FaultTime          float64 // total seconds covered by fault windows
	RunTime            float64 // run duration, for in/out-of-window rates
	rerouteLats        []float64
	recoveryLats       []float64

	// link-prediction accuracy (populated only when the world's link audit
	// is enabled; see netstack.World.EnableLinkAudit)
	LinkSamples  int // resolved predicted-vs-observed lifetime samples
	LinkCensored int // samples unresolved when the run ended
	linkAbsErr   float64
	linkSgnErr   float64
	linkBuckets  [len(LinkBucketEdges) + 1]CalBucket

	delays    []float64 // seconds, one per delivered packet
	hops      []int     // hop counts of delivered packets
	pathLives []float64 // observed lifetimes of established paths

	deliveredByUID map[uint64]bool
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		Control:        make(map[string]int),
		deliveredByUID: make(map[uint64]bool),
	}
}

// OnDataSent records an application-layer origination.
func (c *Collector) OnDataSent() { c.DataSent++ }

// OnDataDelivered records a first-time delivery with its end-to-end delay
// and hop count. Duplicate deliveries of the same UID are counted
// separately and do not skew delay statistics. It reports whether the
// delivery was a first.
func (c *Collector) OnDataDelivered(uid uint64, delay float64, hops int) bool {
	if c.deliveredByUID[uid] {
		c.DataDuplicate++
		return false
	}
	c.deliveredByUID[uid] = true
	c.DataDelivered++
	c.delays = append(c.delays, delay)
	c.hops = append(c.hops, hops)
	return true
}

// OnControl records a control-plane transmission of the given type and
// size in bytes.
func (c *Collector) OnControl(kind string, bytes int) {
	c.Control[kind]++
	c.ControlBytes += bytes
}

// OnReroute records how long after a fault-induced crash the next data
// packet reached its destination — the time the surviving topology took
// to carry traffic around the hole.
func (c *Collector) OnReroute(seconds float64) {
	c.rerouteLats = append(c.rerouteLats, seconds)
}

// OnRecoveryLatency records how long after a node's recovery it was first
// heard again (its first beacon reached some neighbor) — the time the
// network took to re-absorb it.
func (c *Collector) OnRecoveryLatency(seconds float64) {
	c.recoveryLats = append(c.recoveryLats, seconds)
}

// FaultPDR returns the delivery ratio of packets originated inside fault
// windows, the headline graceful-degradation number.
func (c *Collector) FaultPDR() float64 {
	if c.DataSentFault == 0 {
		return 0
	}
	return float64(c.DataDeliveredFault) / float64(c.DataSentFault)
}

// MeanTimeToReroute returns the mean crash-to-next-delivery latency.
func (c *Collector) MeanTimeToReroute() float64 { return mean(c.rerouteLats) }

// MeanRecoveryLatency returns the mean recovery-to-first-beacon-heard
// latency of recovered nodes.
func (c *Collector) MeanRecoveryLatency() float64 { return mean(c.recoveryLats) }

// FaultControlSpike returns the ratio of the control transmission rate
// inside fault windows to the rate outside them: >1 means faults made the
// control plane chattier (route re-discovery storms). It is 0 when no
// fault windows exist and equals the inside rate when nothing was sent
// outside.
func (c *Collector) FaultControlSpike() float64 {
	if c.FaultTime <= 0 || c.RunTime <= c.FaultTime {
		return 0
	}
	in := float64(c.ControlFault) / c.FaultTime
	out := float64(c.ControlTotal()-c.ControlFault) / (c.RunTime - c.FaultTime)
	if out == 0 {
		return in
	}
	return in / out
}

// OnPathLifetime records the observed lifetime of an established path.
func (c *Collector) OnPathLifetime(seconds float64) {
	c.pathLives = append(c.pathLives, seconds)
}

// LinkBucketEdges are the predicted-lifetime boundaries (seconds) of the
// calibration buckets: bucket i holds predictions in [edge(i-1), edge(i)).
var LinkBucketEdges = [...]float64{2, 5, 10, 20}

// CalBucket accumulates one calibration bucket of the link audit: how
// many predictions landed in the bucket's predicted-lifetime range and
// what predicted/observed lifetimes they averaged.
type CalBucket struct {
	N       int
	PredSum float64
	ObsSum  float64
}

// MeanPred returns the bucket's mean predicted lifetime.
func (b CalBucket) MeanPred() float64 {
	if b.N == 0 {
		return 0
	}
	return b.PredSum / float64(b.N)
}

// MeanObs returns the bucket's mean observed lifetime.
func (b CalBucket) MeanObs() float64 {
	if b.N == 0 {
		return 0
	}
	return b.ObsSum / float64(b.N)
}

// OnLinkPrediction records one resolved link-lifetime prediction: pred is
// the residual lifetime the estimator claimed at sample time, obs the
// ground-truth lifetime the world observed (both capped at the audit
// horizon by the caller).
func (c *Collector) OnLinkPrediction(pred, obs float64) {
	c.LinkSamples++
	d := pred - obs
	c.linkAbsErr += math.Abs(d)
	c.linkSgnErr += d
	i := 0
	for i < len(LinkBucketEdges) && pred >= LinkBucketEdges[i] {
		i++
	}
	c.linkBuckets[i].N++
	c.linkBuckets[i].PredSum += pred
	c.linkBuckets[i].ObsSum += obs
}

// LinkMAE returns the mean absolute error of the audited lifetime
// predictions in seconds.
func (c *Collector) LinkMAE() float64 {
	if c.LinkSamples == 0 {
		return 0
	}
	return c.linkAbsErr / float64(c.LinkSamples)
}

// LinkBias returns the mean signed error (predicted − observed) of the
// audited lifetime predictions: positive means the estimator is
// optimistic.
func (c *Collector) LinkBias() float64 {
	if c.LinkSamples == 0 {
		return 0
	}
	return c.linkSgnErr / float64(c.LinkSamples)
}

// LinkCalibration returns the calibration buckets, indexed by predicted
// lifetime against LinkBucketEdges.
func (c *Collector) LinkCalibration() [len(LinkBucketEdges) + 1]CalBucket {
	return c.linkBuckets
}

// PDR returns the packet delivery ratio in [0,1].
func (c *Collector) PDR() float64 {
	if c.DataSent == 0 {
		return 0
	}
	return float64(c.DataDelivered) / float64(c.DataSent)
}

// MeanDelay returns the mean end-to-end delay of delivered packets.
func (c *Collector) MeanDelay() float64 { return mean(c.delays) }

// P95Delay returns the 95th-percentile delay.
func (c *Collector) P95Delay() float64 { return percentile(c.delays, 0.95) }

// MeanHops returns the mean hop count of delivered packets.
func (c *Collector) MeanHops() float64 {
	if len(c.hops) == 0 {
		return 0
	}
	s := 0
	for _, h := range c.hops {
		s += h
	}
	return float64(s) / float64(len(c.hops))
}

// MeanPathLifetime returns the mean observed path lifetime.
func (c *Collector) MeanPathLifetime() float64 { return mean(c.pathLives) }

// ControlTotal returns the total number of control transmissions.
func (c *Collector) ControlTotal() int {
	t := 0
	for _, v := range c.Control {
		t += v
	}
	return t
}

// OverheadRatio returns control transmissions per delivered data packet,
// the survey's "overhead" con. Infinite overhead (nothing delivered) is
// reported as the control count itself to keep tables finite.
func (c *Collector) OverheadRatio() float64 {
	ctl := float64(c.ControlTotal())
	if c.DataDelivered == 0 {
		return ctl
	}
	return ctl / float64(c.DataDelivered)
}

// DuplicateRatio returns duplicate deliveries per delivered packet, the
// broadcast-storm indicator.
func (c *Collector) DuplicateRatio() float64 {
	if c.DataDelivered == 0 {
		return 0
	}
	return float64(c.DataDuplicate) / float64(c.DataDelivered)
}

// CollisionRate returns the fraction of potential receptions destroyed by
// collisions.
func (c *Collector) CollisionRate() float64 {
	total := c.MACDelivered + c.MACCollisions + c.MACChannelLoss
	if total == 0 {
		return 0
	}
	return float64(c.MACCollisions) / float64(total)
}

// Summary is a flattened snapshot used by the experiment harness tables.
// The Control map makes the struct non-comparable; compare summaries with
// reflect.DeepEqual rather than ==.
type Summary struct {
	Protocol      string
	Scenario      string
	PDR           float64
	MeanDelay     float64
	P95Delay      float64
	MeanHops      float64
	Overhead      float64
	DupRatio      float64
	CollisionRate float64
	Discoveries   int
	Breaks        int
	Repairs       int
	PathLifetime  float64
	DataSent      int
	DataDelivered int
	DataForwarded int
	MACTransmits  int
	ControlTotal  int
	// Events is the number of simulator events the run executed — what
	// bench/ reports as sim.events and divides into sim.events_per_s. The
	// collector never sees the engine, so the scenario layer stamps it
	// after Summarize.
	Events int
	// Joins and Leaves count open-world membership changes: nodes that
	// entered or left the world mid-run. Both are zero for closed worlds.
	Joins  int
	Leaves int
	// Link-prediction accuracy from the world's link audit (all zero when
	// the audit is disabled): resolved sample count, mean absolute error
	// and mean signed error of predicted residual lifetimes in seconds,
	// run-end-censored samples, and the calibration buckets.
	LinkSamples     int
	LinkMAE         float64
	LinkBias        float64
	LinkCensored    int
	LinkCalibration [len(LinkBucketEdges) + 1]CalBucket
	// Fault-plane degradation metrics (all zero without a fault profile):
	// crash/recovery event counts, in-window traffic accounting, the
	// fault-window delivery ratio, the control-rate spike factor, and the
	// reroute/recovery latencies in seconds.
	Crashes         int
	Recoveries      int
	FaultSent       int
	FaultDelivered  int
	FaultPDR        float64
	FaultControl    int
	FaultCtlSpike   float64
	TimeToReroute   float64
	RecoveryLatency float64
	// Control is the per-type control transmission count (RREQ, RREP, ...),
	// a copy of the collector's map.
	Control map[string]int
}

// Summarize produces the snapshot, labelled with protocol and scenario
// names.
func (c *Collector) Summarize(protocol, scenario string) Summary {
	ctl := make(map[string]int, len(c.Control))
	for k, v := range c.Control {
		ctl[k] = v
	}
	return Summary{
		Protocol:        protocol,
		Scenario:        scenario,
		PDR:             c.PDR(),
		MeanDelay:       c.MeanDelay(),
		P95Delay:        c.P95Delay(),
		MeanHops:        c.MeanHops(),
		Overhead:        c.OverheadRatio(),
		DupRatio:        c.DuplicateRatio(),
		CollisionRate:   c.CollisionRate(),
		Discoveries:     c.RouteDiscoveries,
		Breaks:          c.RouteBreaks,
		Repairs:         c.RouteRepairs,
		PathLifetime:    c.MeanPathLifetime(),
		DataSent:        c.DataSent,
		DataDelivered:   c.DataDelivered,
		DataForwarded:   c.DataForwarded,
		MACTransmits:    c.MACTransmits,
		ControlTotal:    c.ControlTotal(),
		Joins:           c.NodeJoins,
		Leaves:          c.NodeLeaves,
		LinkSamples:     c.LinkSamples,
		LinkMAE:         c.LinkMAE(),
		LinkBias:        c.LinkBias(),
		LinkCensored:    c.LinkCensored,
		LinkCalibration: c.LinkCalibration(),
		Crashes:         c.FaultCrashes,
		Recoveries:      c.FaultRecoveries,
		FaultSent:       c.DataSentFault,
		FaultDelivered:  c.DataDeliveredFault,
		FaultPDR:        c.FaultPDR(),
		FaultControl:    c.ControlFault,
		FaultCtlSpike:   c.FaultControlSpike(),
		TimeToReroute:   c.MeanTimeToReroute(),
		RecoveryLatency: c.MeanRecoveryLatency(),
		Control:         ctl,
	}
}

// DigestInto folds the collector's full accumulated state into d: every
// counter, the per-type control map in sorted key order, the sample
// slices in append order (append order is event order, deterministic),
// and the delivered-UID set as a size plus an order-independent fold
// (XOR of per-element hashes — map iteration order never reaches the
// digest).
func (c *Collector) DigestInto(d *digest.Writer) {
	d.Int(c.DataSent)
	d.Int(c.DataDelivered)
	d.Int(c.DataDuplicate)
	d.Int(c.DataDropped)
	d.Int(c.DataForwarded)
	keys := make([]string, 0, len(c.Control))
	for k := range c.Control {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d.Int(len(keys))
	for _, k := range keys {
		d.Str(k)
		d.Int(c.Control[k])
	}
	d.Int(c.ControlBytes)
	d.Int(c.DataBytes)
	d.Int(c.MACTransmits)
	d.Int(c.MACDelivered)
	d.Int(c.MACCollisions)
	d.Int(c.MACChannelLoss)
	d.Int(c.RouteDiscoveries)
	d.Int(c.RouteBreaks)
	d.Int(c.RouteRepairs)
	d.Int(c.NodeJoins)
	d.Int(c.NodeLeaves)
	d.Int(c.FaultCrashes)
	d.Int(c.FaultRecoveries)
	d.Int(c.DataSentFault)
	d.Int(c.DataDeliveredFault)
	d.Int(c.ControlFault)
	d.F64(c.FaultTime)
	d.F64(c.RunTime)
	digestF64s := func(xs []float64) {
		d.Int(len(xs))
		for _, x := range xs {
			d.F64(x)
		}
	}
	digestF64s(c.rerouteLats)
	digestF64s(c.recoveryLats)
	d.Int(c.LinkSamples)
	d.Int(c.LinkCensored)
	d.F64(c.linkAbsErr)
	d.F64(c.linkSgnErr)
	for _, b := range c.linkBuckets {
		d.Int(b.N)
		d.F64(b.PredSum)
		d.F64(b.ObsSum)
	}
	digestF64s(c.delays)
	d.Int(len(c.hops))
	for _, h := range c.hops {
		d.Int(h)
	}
	digestF64s(c.pathLives)
	d.Int(len(c.deliveredByUID))
	var fold uint64
	for uid := range c.deliveredByUID {
		fold ^= digest.Mix(uid)
	}
	d.U64(fold)
}

// String renders a one-line human summary.
func (s Summary) String() string {
	return fmt.Sprintf("%s/%s: PDR=%.2f delay=%.3fs hops=%.1f overhead=%.1f dup=%.2f coll=%.2f",
		s.Protocol, s.Scenario, s.PDR, s.MeanDelay, s.MeanHops, s.Overhead, s.DupRatio, s.CollisionRate)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	idx := int(math.Ceil(p*float64(len(cp)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}
