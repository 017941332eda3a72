package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/vanetlab/relroute/internal/channel"
	"github.com/vanetlab/relroute/internal/core"
	"github.com/vanetlab/relroute/internal/eventq"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/linkstate"
	"github.com/vanetlab/relroute/internal/mac"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/par"
	"github.com/vanetlab/relroute/internal/radio"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/scenario"
	"github.com/vanetlab/relroute/internal/sim"
	"github.com/vanetlab/relroute/internal/spatial"
)

// Layer replays time each layer's public calls on fresh instances fed the
// state harvested from the workload's own world at mid-run. They say what
// one operation costs; the macro run's counts say how many there were.

const (
	tickS     = 0.1 // netstack's default mobility tick
	beaconS   = 1.0 // its default HELLO period
	beaconTTL = 2.5 * beaconS
	// kernelOps is the least work one kernel times, so a clock read
	// (tens of ns) stays under 0.1 % of any batch.
	kernelOps = 100_000
)

// harvest is the input of every replay: who is where, moving how, hearing
// whom, taken from the macro world at half time.
type harvest struct {
	ids     []int32 // nodes still in the world (PositionOf ok), ascending
	slot    []int   // node ID → index into ids, -1 when absent
	pos     []geom.Vec2
	vel     []geom.Vec2
	hoods   [][]radio.Link
	links   int
	pending int
	ch      channel.Model
	model   mobility.Model // the world's model, at end of run
	// beacon receptions over the whole run, counted by the world's
	// existing SetBeaconHeardHook — the op count of linkstate.Update
	receptions uint64
}

func (h *harvest) linksPerNode() float64 { return float64(h.links) / float64(len(h.ids)) }

// take reads the world's mid-run state through its public accessors.
func (h *harvest) take(sc *scenario.Scenario) {
	w := sc.World
	h.ch = w.Channel()
	h.pending = w.Engine().Pending()
	h.slot = make([]int, w.Nodes())
	for id := 0; id < w.Nodes(); id++ {
		h.slot[id] = -1
		p, ok := w.PositionOf(netstack.NodeID(id))
		if !ok {
			continue
		}
		links := w.Radio().Links(int32(id))
		v, _ := w.VelocityOf(netstack.NodeID(id))
		h.slot[id] = len(h.ids)
		h.ids = append(h.ids, int32(id))
		h.pos = append(h.pos, p)
		h.vel = append(h.vel, v)
		h.hoods = append(h.hoods, append([]radio.Link(nil), links...))
		h.links += len(links)
	}
}

// check is the replay fidelity guard: a kernel fed something other than the
// workload's state measures some other program.
func (h *harvest) check() []string {
	var bad []string
	if len(h.ids) == 0 {
		return []string{"replay: harvested no active nodes"}
	}
	if h.links == 0 {
		bad = append(bad, "replay: every harvested hood is empty")
	}
	if h.pending == 0 {
		bad = append(bad, "replay: engine had no pending events at half time")
	}
	return bad
}

// tri is a triangle wave over ticks: replays move every node by one tick's
// travel per step, out for 2 s and back, so positions stay near the
// harvested ones however many steps a kernel needs.
func tri(k int) float64 { return math.Abs(float64((k+20)%40 - 20)) }

func (h *harvest) at(i, k int) geom.Vec2 { return h.pos[i].Add(h.vel[i].Scale(tickS * tri(k))) }

// steps is how many rounds of perRound operations reach kernelOps.
func steps(perRound int) int {
	if perRound <= 0 {
		return 1
	}
	return max(10, (kernelOps+perRound-1)/perRound)
}

// results of the kernels, all in ns per the named operation.
type replayed struct {
	stageCommit, snapshot, within, crossRatio float64
	sweepPerLink, lazyPerLink                 float64
	pathloss, decode, rssi, meanRange         float64
	bcastPerRx, unicastPerFrame, stormPerTx   float64
	rxPerTx                                   float64 // deliveries per broadcast in the beacon rounds
	update, updateAllocs, snapPerEntry        float64
	statesPerEntry, expirePerNode, entries    float64
	dupSeen, stability, expectedDuration      float64
	hold, cancel                              float64
	advancePerVeh, statesPerVeh               float64
	onControl, onDelivered, summarizeUs       float64
	barrier                                   float64
	bad                                       []string
}

func perOp(d time.Duration, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(ops)
}

// replayGeometry times the tick plane's spatial work and both radio build
// paths on one grid that moves like the world's.
func (h *harvest) replayGeometry(tr *tracer, parent int, r *replayed) {
	cell := h.ch.MaxRange()
	g := spatial.NewGrid(cell)
	for i, id := range h.ids {
		g.Update(id, h.pos[i])
	}
	sweep := radio.NewCache(g, h.ch)
	lazy := radio.NewCache(g, h.ch)

	// guard: the replay grid must reproduce the macro world's hoods
	sweep.RebuildSweep(par.Seq)
	built := 0
	for _, id := range h.ids {
		built += len(sweep.Links(id))
	}
	if diff := math.Abs(float64(built-h.links)) / float64(h.links); diff > 0.01 {
		r.bad = append(r.bad, fmt.Sprintf("replay: rebuilt %d links from harvested positions, the macro world had %d (%.1f%% apart)",
			built, h.links, 100*diff))
	}

	n := len(h.ids)
	var stage, snap, sweepT, lazyT, withinT time.Duration
	var crosses, sweptLinks, lazyLinks, queries int
	var dst []int32
	rounds := steps(n)
	for k := 1; k <= rounds; k++ {
		stage += tr.timed("spatial.stage_commit", parent, func() {
			for i, id := range h.ids {
				if _, mv, cross, _ := g.Stage(id, h.at(i, k)); cross {
					g.Commit(mv)
					crosses++
				}
			}
			g.AdvanceEpoch()
		})
		snap += tr.timed("spatial.snapshot", parent, func() { g.Snapshot() })
		sweepT += tr.timed("radio.sweep", parent, func() { sweep.RebuildSweep(par.Seq) })
		lazyT += tr.timed("radio.lazy", parent, func() {
			for _, id := range h.ids {
				lazyLinks += len(lazy.Links(id))
			}
		})
		for _, id := range h.ids {
			sweptLinks += len(sweep.Links(id))
		}
		withinT += tr.timed("spatial.within", parent, func() {
			for i := range h.ids {
				dst = g.Within(h.at(i, k), cell, dst[:0])
				queries++
			}
		})
	}
	r.stageCommit = perOp(stage, n*rounds)
	r.snapshot = perOp(snap, n*rounds)
	r.within = perOp(withinT, queries)
	r.crossRatio = float64(crosses) / float64(n*rounds)
	r.sweepPerLink = perOp(sweepT, sweptLinks)
	r.lazyPerLink = perOp(lazyT, lazyLinks)
}

// dists returns every harvested link distance, the channel kernels' input.
func (h *harvest) dists() []float64 {
	out := make([]float64, 0, h.links)
	for _, hood := range h.hoods {
		for _, l := range hood {
			out = append(out, l.Dist)
		}
	}
	return out
}

var sink float64 // defeats dead-code elimination of pure kernels

func (h *harvest) replayChannel(tr *tracer, parent int, seed int64, r *replayed) {
	d := h.dists()
	if len(d) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	pre, split := h.ch.(channel.Precomputed)
	loss := make([]float64, len(d))
	n := max(kernelOps, len(d))
	if split {
		r.pathloss = perOp(tr.timed("channel.pathloss", parent, func() {
			for i := 0; i < n; i++ {
				loss[i%len(d)] = pre.PathLoss(d[i%len(d)])
			}
		}), n)
	}
	r.decode = perOp(tr.timed("channel.decode", parent, func() {
		ok := 0
		for i := 0; i < n; i++ {
			var dec bool
			if split {
				dec = pre.DecodableAt(loss[i%len(d)], rng)
			} else {
				dec = h.ch.Decodable(d[i%len(d)], rng)
			}
			if dec {
				ok++
			}
		}
		sink += float64(ok)
	}), n)
	r.rssi = perOp(tr.timed("channel.rssi", parent, func() {
		for i := 0; i < n; i++ {
			sink += h.ch.RSSI(d[i%len(d)], rng)
		}
	}), n)
	r.meanRange = perOp(tr.timed("channel.mean_range", parent, func() {
		for i := 0; i < n; i++ {
			sink += h.ch.MeanRange()
		}
	}), n)
}

// macRig is a fresh MAC over the harvested geometry: its own engine, grid,
// radio cache and collector. onRx, when set, runs for every delivered frame
// the way the world's dispatch upcall does.
type macRig struct {
	eng       *sim.Engine
	layer     *mac.Layer
	col       *metrics.Collector
	delivered int
	onRx      func(to int32, f mac.Frame)
}

func (h *harvest) newRig(seed int64) *macRig {
	m := &macRig{eng: sim.NewEngine(seed), col: metrics.NewCollector()}
	g := spatial.NewGrid(h.ch.MaxRange())
	for i, id := range h.ids {
		g.Update(id, h.pos[i])
	}
	m.layer = mac.NewLayer(m.eng, radio.NewCache(g, h.ch), mac.Config{}, m.col,
		func(to int32, f mac.Frame) {
			m.delivered++
			if m.onRx != nil {
				m.onRx(to, f)
			}
		}, func(int32, mac.Frame) {})
	return m
}

// rounds runs one-second rounds in which send schedules every node's
// frame, stepping the engine a tick at a time as the world's ticker does;
// afterTick runs between ticks, outside the timing. It returns the time
// spent inside the engine and the deliveries and transmissions it made.
func (m *macRig) rounds(h *harvest, tr *tracer, name string, parent, n int, send func(i int, base float64), afterTick func(now float64)) (time.Duration, int, int) {
	var total time.Duration
	rx0, tx0 := m.delivered, m.col.MACTransmits
	for k := 0; k < n; k++ {
		base := m.eng.Now()
		for i := range h.ids {
			send(i, base)
		}
		for t := 1; t <= 10; t++ {
			until := base + float64(t)*tickS
			total += tr.timed(name, parent, func() {
				_ = m.eng.Run(until) // nil: nothing stops or interrupts this engine
			})
			if afterTick != nil {
				afterTick(until)
			}
		}
	}
	return total, m.delivered - rx0, m.col.MACTransmits - tx0
}

// replayBeaconPlane drives the MAC and, behind it, the link monitors over
// the harvested geometry.
//
// MAC alone: a beacon round (every node broadcasts a HELLO-sized frame at a
// random phase of the second), a unicast round (every node to its nearest
// neighbour) and a storm (every node broadcasts a data-sized frame at the
// same instant).
//
// Then the beacon rounds again with the world's dispatch work attached:
// every delivery updates the receiver's Monitor, every tick every Monitor
// expires. What a reception costs more than in the MAC-only rounds is
// linkstate.update_ns — measured with the MAC's and the radio's state
// competing for the cache, as in the world. An isolated loop over Update
// reads 3–4× lower on the 5 000-vehicle worlds.
func (h *harvest) replayBeaconPlane(tr *tracer, parent int, seed int64, r *replayed) []*linkstate.Monitor {
	rng := rand.New(rand.NewSource(seed))
	n := len(h.ids)
	nearest := make([]int32, n)
	for i, hood := range h.hoods {
		nearest[i] = -1
		best := math.Inf(1)
		for _, l := range hood {
			if l.Dist < best {
				best, nearest[i] = l.Dist, l.To
			}
		}
	}
	beaconRounds := steps(h.links)

	m := h.newRig(seed)
	beacon := func(m *macRig) func(int, float64) {
		return func(i int, base float64) {
			id := h.ids[i]
			m.eng.At(base+rng.Float64()*beaconS, func() {
				m.layer.Send(mac.Frame{From: id, To: mac.Broadcast, Size: 32})
			})
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	d, rx, tx := m.rounds(h, tr, "mac.bcast", parent, beaconRounds, beacon(m), nil)
	runtime.ReadMemStats(&ms1)
	r.bcastPerRx = perOp(d, rx)
	r.rxPerTx = float64(rx) / float64(max(1, tx))
	harnessAllocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(max(1, rx)) // the rounds' own closures

	frames := 0
	d, _, _ = m.rounds(h, tr, "mac.unicast", parent, steps(n), func(i int, base float64) {
		if nearest[i] < 0 {
			return
		}
		frames++
		id, to := h.ids[i], nearest[i]
		m.eng.At(base+rng.Float64()*beaconS, func() {
			m.layer.Send(mac.Frame{From: id, To: to, Size: 512})
		})
	}, nil)
	r.unicastPerFrame = perOp(d, frames)

	d, _, tx = m.rounds(h, tr, "mac.storm", parent, steps(n), func(i int, base float64) {
		id := h.ids[i]
		m.eng.At(base, func() {
			m.layer.Send(mac.Frame{From: id, To: mac.Broadcast, Size: 512})
		})
	}, nil)
	r.stormPerTx = perOp(d, tx)

	// the same beacon rounds with the link monitors behind the MAC
	rangeM := h.ch.MeanRange()
	est := linkstate.MustNew("", linkstate.Config{Range: rangeM})
	mons := make([]*linkstate.Monitor, n)
	for i := range mons {
		mons[i] = linkstate.NewMonitor(beaconTTL, rangeM, est)
	}
	m = h.newRig(seed)
	m.onRx = func(to int32, f mac.Frame) {
		from, at := h.slot[f.From], h.slot[to]
		rssi := h.ch.RSSI(h.pos[at].Dist(h.pos[from]), rng)
		mons[at].Update(linkstate.NodeID(f.From), linkstate.Vehicle, h.pos[from], h.vel[from], rssi, m.eng.Now())
	}
	var expire time.Duration
	expires := 0
	sweep := func(now float64) {
		expire += tr.timed("linkstate.expire", parent, func() {
			for _, mon := range mons {
				mon.Expire(now)
			}
		})
		expires += n
	}
	// three rounds fill the tables and bring expiry (TTL 2.5 s) to its
	// steady rhythm; only the rounds after them are measured
	m.rounds(h, tr, "linkstate.fill", parent, 3, beacon(m), sweep)
	expire, expires = 0, 0
	runtime.ReadMemStats(&ms0)
	d, rx, _ = m.rounds(h, tr, "mac.bcast+linkstate.update", parent, beaconRounds, beacon(m), sweep)
	runtime.ReadMemStats(&ms1)
	r.update = math.Max(0, perOp(d, rx)-r.bcastPerRx-r.rssi)
	r.updateAllocs = math.Max(0, float64(ms1.Mallocs-ms0.Mallocs)/float64(max(1, rx))-harnessAllocs)
	r.expirePerNode = perOp(expire, expires)

	entries := 0
	for _, mon := range mons {
		entries += mon.Len()
	}
	r.entries = float64(entries) / float64(n)
	if entries == 0 {
		return mons
	}
	passes := steps(entries)
	now := m.eng.Now()
	r.snapPerEntry = perOp(tr.timed("linkstate.snapshot", parent, func() {
		for k := 0; k < passes; k++ {
			for _, mon := range mons {
				sink += float64(len(mon.Snapshot()))
			}
		}
	}), entries*passes)
	// a new epoch per pass: every read recomputes the kinematic lifetime,
	// as the first read after a mobility tick does
	r.statesPerEntry = perOp(tr.timed("linkstate.states", parent, func() {
		for k := 0; k < passes; k++ {
			for i, mon := range mons {
				obs := linkstate.Observer{Pos: h.pos[i], Vel: h.vel[i], Now: now, Epoch: uint64(k + 1)}
				sink += float64(len(mon.States(obs)))
			}
		}
	}), entries*passes)
	return mons
}

// replayRouting times the routing-side kernels on the harvested neighbour
// pairs: the flooding duplicate cache (each packet seen once new and then
// once per further neighbour), and the two stability metrics of the paper's
// ticket-based probing over the neighbour tables the beacon replay filled —
// a router only scores neighbours it has heard.
func (h *harvest) replayRouting(tr *tracer, parent int, mons []*linkstate.Monitor, r *replayed) {
	n := len(h.ids)
	caches := make([]*routing.DupCache, n)
	for i := range caches {
		caches[i] = routing.NewDupCache(30)
	}
	packets := max(20, steps(h.links))
	seen := 0
	r.dupSeen = perOp(tr.timed("routing.dupcache", parent, func() {
		for p := 0; p < packets; p++ {
			key := routing.DupKey{Origin: netstack.NodeID(h.ids[p%n]), Seq: uint64(p)}
			for i, hood := range h.hoods {
				for range hood {
					if caches[i].Seen(key, 10) {
						seen++
					}
				}
			}
		}
	}), packets*h.links)
	sink += float64(seen)

	type pair struct{ a, b int }
	var pairs []pair
	for i, mon := range mons {
		for _, e := range mon.Snapshot() {
			pairs = append(pairs, pair{i, h.slot[e.ID]})
		}
	}
	if len(pairs) == 0 {
		return
	}
	rangeM := h.ch.MeanRange()
	ops := max(kernelOps/4, min(len(pairs), kernelOps)) // ~µs each: bound the kernel at about a second
	r.stability = perOp(tr.timed("core.stability", parent, func() {
		for k := 0; k < ops; k++ {
			p := pairs[k%len(pairs)]
			sink += core.LinkStability(core.MetricMeanDuration, core.StabilityParams{},
				h.pos[p.a], h.vel[p.a], h.pos[p.b], h.vel[p.b], rangeM)
		}
	}), ops)
	r.expectedDuration = perOp(tr.timed("prob.expected_duration", parent, func() {
		for k := 0; k < ops; k++ {
			p := pairs[k%len(pairs)]
			obs := linkstate.Observer{Pos: h.pos[p.a], Vel: h.vel[p.a]}
			ls := linkstate.LinkState{Pos: h.pos[p.b], Vel: h.vel[p.b]}
			sink += linkstate.ExpectedDuration(obs, ls, 5, rangeM, 300)
		}
	}), ops)
}

// replayEventq is the classic hold model at the harvested depth: pop the
// minimum, schedule one successor. longShare of the successors land a
// beacon period ahead, the rest within a frame's backoff plus airtime — the
// mix the macro run's counts imply.
func (h *harvest) replayEventq(tr *tracer, parent int, seed int64, longShare float64, r *replayed) {
	var q eventq.Queue
	nop := func() {}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < h.pending; i++ {
		q.Schedule(rng.Float64()*beaconS, nop)
	}
	if q.Len() != h.pending {
		r.bad = append(r.bad, fmt.Sprintf("replay: queue holds %d events, the engine had %d pending", q.Len(), h.pending))
	}
	gaps := make([]float64, 4096)
	for i := range gaps {
		if rng.Float64() < longShare {
			gaps[i] = beaconS * (0.95 + 0.1*rng.Float64())
		} else {
			gaps[i] = rng.Float64() * 2.7e-3
		}
	}
	ops := max(kernelOps, 4*h.pending)
	r.hold = perOp(tr.timed("eventq.hold", parent, func() {
		for i := 0; i < ops; i++ {
			at, _, _ := q.Pop()
			q.Schedule(at+gaps[i%len(gaps)], nop)
		}
	}), ops)
	at, _ := q.PeekTime()
	r.cancel = perOp(tr.timed("eventq.cancel", parent, func() {
		for i := 0; i < kernelOps; i++ {
			q.Cancel(q.Schedule(at+beaconS+gaps[i%len(gaps)], nop))
		}
	}), kernelOps)
}

// replayMobility advances the world's own model (its run is over, so
// nothing else touches it) outside the engine.
func (h *harvest) replayMobility(tr *tracer, parent int, r *replayed) {
	m := h.model
	if m == nil || m.Len() == 0 {
		return
	}
	var buf []mobility.State
	var adv, st time.Duration
	vehicles := 0
	for k := steps(m.Len()); k > 0; k-- {
		vehicles += m.Len()
		adv += tr.timed("mobility.advance", parent, func() { m.Advance(tickS) })
		st += tr.timed("mobility.states", parent, func() { buf = m.StatesInto(buf[:0]) })
	}
	r.advancePerVeh = perOp(adv, vehicles)
	r.statesPerVeh = perOp(st, vehicles)
}

// replayMetrics times the collector calls the stack makes per beacon and
// per delivery, and one Summarize over the filled collector.
func replayMetrics(tr *tracer, parent int, r *replayed) {
	col := metrics.NewCollector()
	r.onControl = perOp(tr.timed("metrics.oncontrol", parent, func() {
		for i := 0; i < 10*kernelOps; i++ {
			col.OnControl(netstack.KindHello, 32)
		}
	}), 10*kernelOps)
	r.onDelivered = perOp(tr.timed("metrics.ondelivered", parent, func() {
		for i := 0; i < kernelOps; i++ {
			col.OnDataDelivered(uint64(i), 0.01, 3)
		}
	}), kernelOps)
	const sums = 100
	r.summarizeUs = perOp(tr.timed("metrics.summarize", parent, func() {
		for i := 0; i < sums; i++ {
			sink += col.Summarize("bench", "replay").PDR
		}
	}), sums) / 1e3
}

// replayBarrier times an empty fork-join on a two-shard pool: the price of
// every sharded phase before it does any work.
func replayBarrier(tr *tracer, parent int, r *replayed) {
	p := par.New(2)
	defer p.Close()
	r.barrier = perOp(tr.timed("par.barrier", parent, func() {
		for i := 0; i < kernelOps; i++ {
			p.Run(func(int) {})
		}
	}), kernelOps)
}
