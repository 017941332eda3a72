package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/scenario"
)

// driven is one ladder rung: every run of the workload (in the rung's
// variant) built, then driven by StartRun + AdvanceTo in 1 sim-s segments +
// CompleteRun/EndRun, a span around each segment.
type driven struct {
	out      outcome
	segMs    []float64 // every 1 sim-s segment
	runMs    []float64 // every run, start to end
	builds   uint64    // radio.Cache.Builds summed over the runs' worlds
	vehicles int       // Σ vehicles at build
	vehTicks float64   // Σ vehicles at build × mobility ticks
	demand   float64   // mean PrevEpochUse ÷ nodes at end of run
	cpu      time.Duration
	gcCPU    float64 // seconds
	gcCycles uint32
	heapMB   float64 // live heap after the last run, its world still referenced
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func drive(runs []runSpec, v variant, shards int, tr *tracer, name string, parent int) driven {
	var d driven
	rung := tr.begin(name, parent)
	defer tr.end(rung)
	var last *scenario.Scenario
	for i, r := range runs {
		var sc *scenario.Scenario
		var err error
		tr.timed("scenario.build", rung, func() { sc, _, err = r.build(v, shards) })
		if err != nil {
			d.out.failures = append(d.out.failures, fmt.Sprintf("%s run %d build: %v", name, i, err))
			continue
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cpu0, gc0 := cpuTime(), gcCPUSeconds()
		run := tr.begin("netstack.run", rung)
		sc.World.StartRun()
		for t := 1.0; err == nil && t < r.opts.Duration+1; t++ {
			seg := tr.begin("netstack.segment", run)
			err = sc.World.AdvanceTo(math.Min(t, r.opts.Duration))
			d.segMs = append(d.segMs, tr.end(seg).Seconds()*1000)
		}
		if err == nil {
			sc.World.CompleteRun()
		}
		sc.World.EndRun()
		wall := tr.end(run)
		d.cpu += cpuTime() - cpu0
		d.gcCPU += gcCPUSeconds() - gc0
		runtime.ReadMemStats(&after)
		d.out.wall += wall
		d.runMs = append(d.runMs, wall.Seconds()*1000)
		d.gcCycles += after.NumGC - before.NumGC
		if err != nil {
			d.out.failures = append(d.out.failures, fmt.Sprintf("%s run %d: %v", name, i, err))
		}
		d.out.sums = append(d.out.sums, sc.Summary())
		d.out.digests = append(d.out.digests, sc.World.Digest())
		d.builds += sc.World.Radio().Builds()
		d.vehicles += len(sc.Vehicles)
		d.vehTicks += float64(len(sc.Vehicles)) * r.opts.Duration / tickS
		if n := sc.World.ActiveNodes(); n > 0 {
			d.demand += float64(sc.World.Radio().PrevEpochUse()) / float64(n) / float64(len(runs))
		}
		last = sc
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(last)
	return d
}

// counted is the harvest run: the workload once more, with the world's
// existing beacon-heard hook counting receptions, paused at half time to
// read the replay inputs. Only the workload's first run is harvested; the
// hook counts over all of them.
func counted(runs []runSpec, tr *tracer, parent int) (*harvest, outcome) {
	h := &harvest{}
	var out outcome
	for i, r := range runs {
		sc, _, err := r.build(rungFull, 0)
		if err != nil {
			out.failures = append(out.failures, fmt.Sprintf("harvest run %d build: %v", i, err))
			continue
		}
		sc.World.SetBeaconHeardHook(func(netstack.NodeID) { h.receptions++ })
		tr.timed("harvest.run", parent, func() {
			sc.World.StartRun()
			if i == 0 {
				if err = sc.World.AdvanceTo(r.opts.Duration / 2); err == nil {
					h.take(sc)
				}
			}
			if err == nil {
				err = sc.World.AdvanceTo(r.opts.Duration)
			}
			if err == nil {
				sc.World.CompleteRun()
			}
			sc.World.EndRun()
		})
		if err != nil {
			out.failures = append(out.failures, fmt.Sprintf("harvest run %d: %v", i, err))
		}
		out.sums = append(out.sums, sc.Summary())
		out.digests = append(out.digests, sc.World.Digest())
		if i == 0 {
			h.model = sc.Model
		}
	}
	return h, out
}

// totals are the macro run's op counts, summed over the workload's runs.
type totals struct {
	events, transmits, control, hello, probes float64
	sent, delivered, forwarded, discoveries   float64
	collision, hops                           float64
	vehicleTicks, floodTransmits              float64
}

func tally(sums []metrics.Summary) totals {
	var t totals
	for _, s := range sums {
		t.events += float64(s.Events)
		t.transmits += float64(s.MACTransmits)
		t.control += float64(s.ControlTotal)
		t.hello += float64(s.Control[netstack.KindHello])
		t.probes += float64(s.Control[netstack.KindProbe])
		t.sent += float64(s.DataSent)
		t.delivered += float64(s.DataDelivered)
		t.forwarded += float64(s.DataForwarded)
		t.discoveries += float64(s.Discoveries)
		t.collision += s.CollisionRate / float64(len(sums))
		t.hops += s.MeanHops / float64(len(sums))
		if s.Protocol == "Flooding" || s.Protocol == "Biswas" {
			t.floodTransmits += float64(s.MACTransmits)
		}
	}
	return t
}

// layerUnits names every per-layer metric of the traced pass with its unit.
// BENCHMARK.json's per_layer list is this table; the package test keeps the
// two equal.
var layerUnits = map[string]string{
	"scenario.build_ms_per_kveh":       "ms",
	"netstack.tick_ms_per_sim_s":       "ms",
	"netstack.beacon_ms_per_sim_s":     "ms",
	"netstack.data_ms_per_sim_s":       "ms",
	"netstack.segment_ms_p50":          "ms",
	"netstack.segment_ms_p90":          "ms",
	"netstack.segment_ms_max":          "ms",
	"netstack.wall_ms_per_sim_s_min":   "ms",
	"sim.events":                       "count",
	"sim.ns_per_event":                 "ns",
	"sim.events_per_s":                 "1/s",
	"eventq.pending_mid":               "count",
	"eventq.hold_ns":                   "ns",
	"eventq.cancel_ns":                 "ns",
	"eventq.est_share":                 "ratio",
	"mobility.advance_ns_per_veh":      "ns",
	"mobility.states_ns_per_veh":       "ns",
	"mobility.est_share":               "ratio",
	"spatial.stage_commit_ns_per_node": "ns",
	"spatial.snapshot_ns_per_node":     "ns",
	"spatial.within_ns_per_query":      "ns",
	"spatial.cross_cell_ratio":         "ratio",
	"spatial.est_share":                "ratio",
	"radio.links_per_node":             "count",
	"radio.sweep_ns_per_link":          "ns",
	"radio.lazy_ns_per_link":           "ns",
	"radio.lazy_builds":                "count",
	"radio.demand_ratio":               "ratio",
	"radio.est_share":                  "ratio",
	"channel.pathloss_ns":              "ns",
	"channel.decode_ns":                "ns",
	"channel.rssi_ns":                  "ns",
	"channel.mean_range_ns":            "ns",
	"channel.est_share":                "ratio",
	"mac.transmits":                    "count",
	"mac.collision_rate":               "ratio",
	"mac.bcast_ns_per_rx":              "ns",
	"mac.unicast_ns_per_frame":         "ns",
	"mac.storm_ns_per_tx":              "ns",
	"mac.est_share":                    "ratio",
	"linkstate.entries_per_node":       "count",
	"linkstate.beacon_receptions":      "count",
	"linkstate.update_ns":              "ns",
	"linkstate.update_allocs":          "count",
	"linkstate.snapshot_ns_per_entry":  "ns",
	"linkstate.states_ns_per_entry":    "ns",
	"linkstate.expire_ns_per_node":     "ns",
	"linkstate.est_share":              "ratio",
	"routing.control_per_data":         "ratio",
	"routing.forwards_per_delivery":    "ratio",
	"routing.mean_hops":                "count",
	"routing.discoveries":              "count",
	"routing.dupcache_seen_ns":         "ns",
	"core.stability_ns":                "ns",
	"prob.expected_duration_ns":        "ns",
	"routing.est_share":                "ratio",
	"metrics.oncontrol_ns":             "ns",
	"metrics.ondelivered_ns":           "ns",
	"metrics.summarize_us":             "us",
	"par.cpu_over_wall":                "ratio",
	"par.run_barrier_ns":               "ns",
	"par.x2_speedup":                   "ratio",
	"runner.runs_per_s":                "1/s",
	"runner.build_share":               "ratio",
	"runner.slowest_run_ms":            "ms",
	"runtime.gc_cpu_fraction":          "ratio",
	"runtime.gc_cycles_per_sim_s":      "1/s",
	"runtime.heap_live_mb_end":         "MB",
	"trace.overhead_pct":               "%",
	"trace.coverage":                   "ratio",
}

func init() {
	for _, p := range scenario.Protocols() {
		layerUnits["routing.ms_per_sim_s."+p] = "ms"
	}
}

// Σ est_share outside this band means the replays no longer add up to the
// macro run. The band is what this sandbox shows for kernels that do follow
// the real call pattern: 0.45–0.65 on the 5 000-vehicle beaconing worlds
// (their replays run warmer than the macro run), up to 1.13 on city-probe.
const coverageLow, coverageHigh = 0.4, 1.2

// traced is the per-layer pass. It never feeds the end-to-end numbers: the
// untraced pass measures those with none of this running.
func traced(w *workload, seed int64, sc scale, budget time.Duration, outDir string) (*report, error) {
	runs := w.worldRuns(seed, 0, sc) // of a replicated workload, the first world
	simS := simSeconds(runs)
	rep := &report{Workload: w.name, Seed: seed, Traced: true, Metrics: map[string]metric{}}
	tr := newTracer()
	root := tr.begin(w.name, -1)

	// The workload exactly as the untraced pass runs it: the reference for
	// every equality check below and the base of trace.overhead_pct.
	var plain outcome
	tr.timed("untraced", root, func() { plain = w.execute(runs, 0, true) })
	rep.Attempted += len(runs)
	rep.fail(len(plain.failures), plain.failures...)
	rep.Fingerprint = fingerprint(plain)
	builds, _, err := timeBuilds(runs, buildsPerRep)
	if err != nil {
		return nil, err
	}
	buildS := median(builds)

	// Plane ladder, as many rounds as the budget allows.
	var r0, r1, r2 []float64
	var full driven
	start := time.Now()
	for round := 0; ; round++ {
		if round > 0 && time.Since(start)*time.Duration(round+1)/time.Duration(round) > budget {
			break
		}
		r0 = append(r0, drive(runs, rungTick, 0, tr, "ladder.r0-tick", root).out.wall.Seconds()*1000/simS)
		r1 = append(r1, drive(runs, rungBeacon, 0, tr, "ladder.r1-beacon", root).out.wall.Seconds()*1000/simS)
		full = drive(runs, rungFull, 0, tr, "ladder.r2-full", root)
		r2 = append(r2, full.out.wall.Seconds()*1000/simS)
		rep.Attempted += len(runs)
		bad := append(full.out.failures, sameOutputs("segmented drive", plain, full.out)...)
		rep.fail(min(len(bad), len(runs)), bad...)
	}
	rep.Reps = len(r2)

	// The same world at Shards=2: identical outputs, and the wall-clock ratio
	// sharding buys on this machine's cores — each side at the reference
	// machine's speed, since the two runs are a minute apart.
	var twin outcome
	tr.timed("shards-2", root, func() { twin = w.execute(runs, 2, true) })
	rep.Attempted += len(runs)
	bad := append(twin.failures, sameOutputs("Shards=2 twin", plain, twin)...)
	rep.fail(min(len(bad), len(runs)), bad...)
	speedup := (plain.wall.Seconds() / plain.slow) / (twin.wall.Seconds() / twin.slow)

	// Harvest and replays.
	hv := tr.begin("harvest", root)
	h, cnt := counted(runs, tr, hv)
	tr.end(hv)
	rep.Attempted += len(runs)
	bad = append(cnt.failures, sameOutputs("harvest run", plain, cnt)...)
	bad = append(bad, h.check()...)
	rep.fail(min(len(bad), len(runs)), bad...)

	tot := tally(full.out.sums)
	linksPerNode := 0.0
	if len(h.ids) > 0 {
		linksPerNode = h.linksPerNode()
	}
	var k replayed
	if len(h.ids) > 0 && h.links > 0 {
		rp := tr.begin("replay", root)
		h.replayGeometry(tr, rp, &k)
		h.replayChannel(tr, rp, seed, &k)
		mons := h.replayBeaconPlane(tr, rp, seed, &k)
		h.replayRouting(tr, rp, mons, &k)
		long := 0.0
		if tot.events > 0 {
			long = math.Min(1, (tot.hello+simS/tickS)/tot.events)
		}
		h.replayEventq(tr, rp, seed, long, &k)
		h.replayMobility(tr, rp, &k)
		replayMetrics(tr, rp, &k)
		replayBarrier(tr, rp, &k)
		tr.end(rp)
		rep.fail(len(k.bad), k.bad...)
	}

	// Protocol panel: every protocol on the paper's default world, alone.
	panel := tr.begin("protocol-panel", root)
	for _, p := range scenario.Protocols() {
		r := protocolOpts(p, seed, sc.campDuration)
		runtime.GC()
		var perr error
		d := tr.timed("routing."+p, panel, func() { _, perr = scenario.RunProtocol(p, r.opts) })
		rep.Attempted++
		if perr != nil {
			rep.fail(1, fmt.Sprintf("panel %s: %v", p, perr))
		}
		rep.Metrics["routing.ms_per_sim_s."+p] = metric{Value: d.Seconds() * 1000 / r.opts.Duration}
	}
	tr.end(panel)
	tr.end(root)

	wallMs := median(r2) // host ms per sim-s of the traced full run
	wallNs := wallMs * 1e6 * simS
	set := func(name string, v float64) { rep.Metrics[name] = metric{Value: v} }
	share := func(ns float64) float64 { return ns / wallNs }

	set("scenario.build_ms_per_kveh", buildS*1000/(float64(full.vehicles)/1000))
	set("netstack.tick_ms_per_sim_s", median(r0))
	set("netstack.beacon_ms_per_sim_s", median(r1)-median(r0))
	set("netstack.data_ms_per_sim_s", median(r2)-median(r1))
	set("netstack.segment_ms_p50", quantile(full.segMs, 0.5))
	set("netstack.segment_ms_p90", quantile(full.segMs, 0.9))
	set("netstack.segment_ms_max", quantile(full.segMs, 1))
	set("netstack.wall_ms_per_sim_s_min", quantile(r2, 0))

	set("sim.events", tot.events)
	set("sim.ns_per_event", wallNs/tot.events)
	set("sim.events_per_s", tot.events/(wallNs/1e9))
	set("eventq.pending_mid", float64(h.pending))
	set("eventq.hold_ns", k.hold)
	set("eventq.cancel_ns", k.cancel)
	shares := map[string]float64{}
	shares["eventq"] = share(k.hold * tot.events)

	set("mobility.advance_ns_per_veh", k.advancePerVeh)
	set("mobility.states_ns_per_veh", k.statesPerVeh)
	shares["mobility"] = share((k.advancePerVeh + k.statesPerVeh) * full.vehTicks)

	set("spatial.stage_commit_ns_per_node", k.stageCommit)
	set("spatial.snapshot_ns_per_node", k.snapshot)
	set("spatial.within_ns_per_query", k.within)
	set("spatial.cross_cell_ratio", k.crossRatio)
	shares["spatial"] = share(k.stageCommit * full.vehTicks)

	set("radio.links_per_node", linksPerNode)
	set("radio.sweep_ns_per_link", k.sweepPerLink)
	set("radio.lazy_ns_per_link", k.lazyPerLink)
	set("radio.lazy_builds", float64(full.builds))
	set("radio.demand_ratio", full.demand)
	shares["radio"] = share(k.lazyPerLink * linksPerNode * float64(full.builds))

	candidates := tot.transmits * linksPerNode // receivers the MAC decides on
	set("channel.pathloss_ns", k.pathloss)
	set("channel.decode_ns", k.decode)
	set("channel.rssi_ns", k.rssi)
	set("channel.mean_range_ns", k.meanRange)
	// ticket routers read every neighbour's state once per probe handled,
	// score each with the stability metric, and ask the channel for its
	// mean range every time
	stateReads := (tot.probes + tot.discoveries) * k.entries
	shares["channel"] = share(k.decode*candidates + k.rssi*float64(h.receptions) +
		k.pathloss*linksPerNode*float64(full.builds) + k.meanRange*stateReads)

	set("mac.transmits", tot.transmits)
	set("mac.collision_rate", tot.collision)
	set("mac.bcast_ns_per_rx", k.bcastPerRx)
	set("mac.unicast_ns_per_frame", k.unicastPerFrame)
	set("mac.storm_ns_per_tx", k.stormPerTx)
	// between the two measured regimes, by how contended the macro run was
	perTx := (1-tot.collision)*k.bcastPerRx*k.rxPerTx + tot.collision*k.stormPerTx
	shares["mac"] = share(perTx * tot.transmits)

	// beaconing position-based routers snapshot the neighbour table for
	// every forwarding decision
	tableReads := 0.0
	if tot.hello > 0 {
		tableReads = tot.forwarded * k.entries
	}
	set("linkstate.entries_per_node", k.entries)
	set("linkstate.beacon_receptions", float64(h.receptions))
	set("linkstate.update_ns", k.update)
	set("linkstate.update_allocs", k.updateAllocs)
	set("linkstate.snapshot_ns_per_entry", k.snapPerEntry)
	set("linkstate.states_ns_per_entry", k.statesPerEntry)
	set("linkstate.expire_ns_per_node", k.expirePerNode)
	expireTicks := 0.0 // a table no beacon ever filled expires in one comparison
	if tot.hello > 0 {
		expireTicks = full.vehTicks
	}
	shares["linkstate"] = share(k.update*float64(h.receptions) + k.expirePerNode*expireTicks +
		k.statesPerEntry*stateReads + k.snapPerEntry*tableReads)

	set("routing.control_per_data", tot.control/math.Max(1, tot.sent))
	set("routing.forwards_per_delivery", tot.forwarded/math.Max(1, tot.delivered))
	set("routing.mean_hops", tot.hops)
	set("routing.discoveries", tot.discoveries)
	set("routing.dupcache_seen_ns", k.dupSeen)
	set("core.stability_ns", k.stability)
	set("prob.expected_duration_ns", k.expectedDuration)
	shares["routing"] = share(k.stability*stateReads +
		k.dupSeen*tot.floodTransmits*linksPerNode*(1-tot.collision))

	set("metrics.oncontrol_ns", k.onControl)
	set("metrics.ondelivered_ns", k.onDelivered)
	set("metrics.summarize_us", k.summarizeUs)

	set("par.cpu_over_wall", full.cpu.Seconds()/full.out.wall.Seconds())
	set("par.run_barrier_ns", k.barrier)
	set("par.x2_speedup", speedup)

	total := plain.wall.Seconds()
	if !w.campaign {
		total += buildS
	}
	set("runner.runs_per_s", float64(len(runs))/total)
	set("runner.build_share", buildS/total)
	set("runner.slowest_run_ms", quantile(full.runMs, 1))

	set("runtime.gc_cpu_fraction", full.gcCPU/(full.out.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	set("runtime.gc_cycles_per_sim_s", float64(full.gcCycles)/simS)
	set("runtime.heap_live_mb_end", full.heapMB)
	plainMs := plain.wall.Seconds() * 1000 / simS
	set("trace.overhead_pct", 100*(quantile(r2, 0)-plainMs)/plainMs)

	coverage, top := 0.0, ""
	for layer, s := range shares {
		set(layer+".est_share", s)
		coverage += s
		if top == "" || s > shares[top] {
			top = layer
		}
	}
	set("trace.coverage", coverage)
	if coverage < coverageLow || coverage > coverageHigh {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf(
			"trace.coverage %.2f outside 0.4–1.2: the replays do not add up to the macro run; largest estimated share is %s (%.2f) — check that its kernel still follows the real call pattern",
			coverage, top, shares[top]))
	}

	for name, m := range rep.Metrics {
		m.Unit = layerUnits[name]
		rep.Metrics[name] = m
	}
	rep.Correct = rep.Failed == 0
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
