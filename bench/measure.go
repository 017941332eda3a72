package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/runner"
	"github.com/vanetlab/relroute/internal/scenario"
)

// metric is one reported number. Samples holds the per-repetition values
// behind a median, so -compare can tell "unchanged" from "unresolved".
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// outcome is what one repetition of a workload produced.
type outcome struct {
	sums     []metrics.Summary
	digests  []uint64
	picks    [][]flowPick    // per LocalFlows run; empty for default-CBR workloads
	wall     time.Duration   // the timed regions; the probe's slices are outside them
	runWall  []time.Duration // wall, run by run (a campaign run: its simulation and one build)
	slow     float64         // the machine's slowdown while they ran (probe.go)
	mallocs  uint64
	allocKB  float64
	failures []string
}

// runTimeout turns a hung campaign run into a recorded failure well inside
// the driver's 180 s limit; the slowest real run takes about 1 s.
const runTimeout = 60 * time.Second

// segmentS is how much simulated time a macro world advances between two
// slices of the machine-speed probe: one mobility tick, 10–20 ms of host
// time on the full-scale worlds.
const segmentS = 0.1

// campaignSlices is how many probe slices run between two campaign runs
// (60–300 ms of host time each).
const campaignSlices = 4

// execute runs one repetition: the campaign through runner.Pool{Workers: 1},
// a macro world through BuildSpec and World.Run's segmented form (StartRun,
// AdvanceTo one segment at a time, CompleteRun, EndRun — the same event
// sequence), the probe sampling the machine's speed between segments and
// between campaign runs. Only the run is timed for macro worlds (setup_s
// covers the build); a campaign's wall includes its builds, as a user's
// does. shards > 0 overrides the spec's shard count.
//
// digests asks a campaign for its worlds' final digests as well, which means
// holding all of them: the pool hands a world out only through the Setup
// hook, before its run. The untimed warm-up repetition does that — so a
// campaign's peak_rss_mb is its finished worlds held at once, a steady
// figure that moves with the per-world footprint, where the 11 MB of a
// campaign that holds nothing is mostly the Go runtime's and swung by 30 %
// with the machine's load. The timed repetitions hold nothing: the pool
// frees every world after its run, as a user's campaign does, and they are
// compared by their summaries. A macro world's digest is taken after the
// clock stops, always.
func (w *workload) execute(runs []runSpec, shards int, digests bool) outcome {
	var out outcome
	var before, after runtime.MemStats
	mark := speed.mark()
	if w.campaign {
		var held []*scenario.Scenario
		var camp runner.Campaign
		var edge time.Time // where the clock last started
		// The pool calls Setup between a run's build and its run, on its one
		// worker: the only place to sample the machine's speed inside a
		// campaign, and the only clock edge between two runs. A run's wall is
		// therefore its simulation and the next run's build (the first run
		// carries its own build too): a build is 0.4 ms, the cheapest run 15.
		lap := func(sc *scenario.Scenario) {
			if d := time.Since(edge); len(out.runWall) == 0 {
				out.runWall = append(out.runWall, d)
			} else {
				out.runWall[len(out.runWall)-1] += d
				out.runWall = append(out.runWall, 0)
			}
			speed.run(campaignSlices)
			if digests {
				held = append(held, sc)
			}
			edge = time.Now()
		}
		for _, r := range runs {
			o := r.opts
			if shards > 0 {
				o.Shards = shards
			}
			camp.Add(runner.Run{Protocol: r.protocol, Opts: o, Setup: lap})
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		edge = time.Now()
		results := runner.Pool{Workers: 1, Timeout: runTimeout}.Execute(camp)
		if n := len(out.runWall); n > 0 {
			out.runWall[n-1] += time.Since(edge)
		}
		runtime.ReadMemStats(&after)
		// Workers: 1 builds in submission order, so held lines up with runs
		// unless a build failed — which the error below reports.
		for _, sc := range held {
			out.digests = append(out.digests, sc.World.Digest())
		}
		for i, res := range results {
			if res.Err != nil {
				out.failures = append(out.failures, fmt.Sprintf("run %d (%s): %v", i, res.Run.Protocol, res.Err))
			}
			out.sums = append(out.sums, res.Summary)
		}
	} else {
		for i, r := range runs {
			sc, lf, err := r.build(rungFull, shards)
			if err != nil {
				out.failures = append(out.failures, fmt.Sprintf("run %d build: %v", i, err))
				continue
			}
			runtime.GC()
			runtime.ReadMemStats(&before)
			var wall time.Duration
			t0 := time.Now()
			sc.World.StartRun()
			wall += time.Since(t0)
			segments := int(math.Ceil(r.opts.Duration/segmentS - 1e-9))
			for seg := 1; err == nil && seg <= segments; seg++ {
				t0 = time.Now()
				err = sc.World.AdvanceTo(math.Min(float64(seg)*segmentS, r.opts.Duration))
				wall += time.Since(t0)
				speed.run(1)
			}
			t0 = time.Now()
			if err == nil {
				sc.World.CompleteRun()
			}
			sc.World.EndRun()
			wall += time.Since(t0)
			runtime.ReadMemStats(&after)
			out.runWall = append(out.runWall, wall)
			if err != nil {
				out.failures = append(out.failures, fmt.Sprintf("run %d: %v", i, err))
			}
			out.sums = append(out.sums, sc.Summary())
			out.digests = append(out.digests, sc.World.Digest())
			if lf != nil {
				out.picks = append(out.picks, lf.Picked)
			}
		}
	}
	for _, d := range out.runWall {
		out.wall += d
	}
	out.slow = speed.slowdown(mark)
	out.mallocs = after.Mallocs - before.Mallocs
	out.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
	out.failures = append(out.failures, w.checkOutputs(runs, out)...)
	return out
}

// checkOutputs applies the per-run output checks of the correctness gate.
func (w *workload) checkOutputs(runs []runSpec, out outcome) []string {
	var bad []string
	for i, s := range out.sums {
		if s.DataDelivered > s.DataSent {
			bad = append(bad, fmt.Sprintf("run %d: delivered %d > sent %d", i, s.DataDelivered, s.DataSent))
		}
		if want := runs[i].opts.Flows * runs[i].opts.FlowPackets; w.closed && s.DataSent != want {
			bad = append(bad, fmt.Sprintf("run %d: closed world sent %d packets, want %d", i, s.DataSent, want))
		}
		if band := runs[i].flows; band.Max > 0 && i < len(out.picks) {
			if len(out.picks[i]) != runs[i].opts.Flows {
				bad = append(bad, fmt.Sprintf("run %d: %d flows wired, want %d", i, len(out.picks[i]), runs[i].opts.Flows))
			}
			for _, p := range out.picks[i] {
				if p.Dist < band.Min || p.Dist > band.Max {
					bad = append(bad, fmt.Sprintf("run %d: flow %d→%d is %.0f m apart, outside [%g,%g]",
						i, p.Src, p.Dst, p.Dist, band.Min, band.Max))
				}
			}
		}
	}
	if w.pdrFloor > 0 && len(out.sums) > 0 && meanPDR(out.sums) < w.pdrFloor {
		bad = append(bad, fmt.Sprintf("pdr %.3f below floor %.2f", meanPDR(out.sums), w.pdrFloor))
	}
	return bad
}

// sameOutputs reports how a repetition's simulated results differ from the
// reference repetition's. A deterministic simulator leaves no room: every
// summary and every final world digest must be identical.
func sameOutputs(what string, ref, got outcome) []string {
	var bad []string
	if len(ref.sums) != len(got.sums) {
		return []string{fmt.Sprintf("%s: %d runs vs reference %d", what, len(got.sums), len(ref.sums))}
	}
	for i := range ref.sums {
		if !reflect.DeepEqual(ref.sums[i], got.sums[i]) {
			bad = append(bad, fmt.Sprintf("%s: run %d summary differs from reference", what, i))
		}
	}
	if len(got.digests) == 0 {
		return bad // a timed campaign repetition takes none
	}
	if len(ref.digests) != len(got.digests) {
		return append(bad, fmt.Sprintf("%s: %d digests vs reference %d", what, len(got.digests), len(ref.digests)))
	}
	for i := range ref.digests {
		if ref.digests[i] != got.digests[i] {
			bad = append(bad, fmt.Sprintf("%s: run %d digest %016x != reference %016x", what, i, got.digests[i], ref.digests[i]))
		}
	}
	return bad
}

func meanPDR(sums []metrics.Summary) float64 {
	var t float64
	for _, s := range sums {
		t += s.PDR
	}
	return t / float64(len(sums))
}

// fingerprint folds every summary and final digest of a repetition into one
// value: a speed-only change must leave it untouched for a given seed.
func fingerprint(out outcome) string {
	h := fnv.New64a()
	for _, s := range out.sums {
		fmt.Fprintf(h, "%+v|", s)
	}
	for _, d := range out.digests {
		fmt.Fprintf(h, "%016x|", d)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// buildSlices probe slices run before and after every timed build pass.
const buildSlices = 2

// timeBuilds measures the workload's set-up: n times, build every run's
// scenario; returns the seconds each pass took and the machine's slowdown
// around it.
func timeBuilds(runs []runSpec, n int) (secs, slow []float64, err error) {
	for i := 0; i < n; i++ {
		runtime.GC()
		mark := speed.mark()
		speed.run(buildSlices)
		t0 := time.Now()
		for _, r := range runs {
			if _, _, err := r.build(rungFull, 0); err != nil {
				return nil, nil, err
			}
		}
		secs = append(secs, time.Since(t0).Seconds())
		speed.run(buildSlices)
		slow = append(slow, speed.slowdown(mark))
	}
	return secs, slow, nil
}

// report is the result of one pass (untraced or traced) over one workload.
type report struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Traced      bool              `json:"traced"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Failures    []string          `json:"failures,omitempty"`
	Warnings    []string          `json:"warnings,omitempty"`
	Fingerprint string            `json:"sim_fingerprint"`
	Reps        int               `json:"reps"`
	Metrics     map[string]metric `json:"metrics"`
	// Info is printed beside the metrics and gates nothing: what the machine
	// did to the run.
	Info map[string]metric `json:"info,omitempty"`
}

func (r *report) fail(n int, msgs ...string) {
	if len(msgs) == 0 {
		return
	}
	r.Failed += n
	r.Failures = append(r.Failures, msgs...)
}

const buildsPerRep = 5

// measure is the untraced pass: one discarded warm-up repetition, then
// closed-loop repetitions (one simulation at a time) until the time budget
// is spent, never fewer than the scale's minimum. A workload replicated over
// several worlds cycles through them and stops only on a whole cycle, so the
// measured inputs depend on the seed alone, never on the machine's speed.
// Repetitions of the same world run identical inputs, so their outputs must
// be identical too.
//
// wall_ms_per_sim_s is, per cycle, the geometric mean over the cycle's runs
// of host ms per simulated second at the reference machine's speed, and the
// median of that over the cycles. One world is one run, so there it is the
// plain median of the repetitions. Over many runs the geometric mean weighs
// every run alike: in a campaign's plain total four ticket-probing protocols
// are two thirds, and what they cost swings 57–937 ms with the world.
func measure(w *workload, seed int64, sc scale, budget time.Duration) (*report, error) {
	worlds := max(1, w.worlds)
	rep := &report{Workload: w.name, Seed: seed, Metrics: map[string]metric{}}
	refs := make([]*outcome, worlds)

	// The warm-up fills the heap and the caches, and is the reference the
	// timed repetitions of the first world must reproduce.
	first := w.worldRuns(seed, 0, sc)
	warm := w.execute(first, 0, true)
	refs[0] = &warm
	rep.Attempted += len(first)
	rep.fail(len(warm.failures), warm.failures...)

	var wall, total, slow, allocs, allocKB, setup []float64 // one value per cycle, setup per build
	reps := 0
	start := time.Now()
	for cycle := 0; ; cycle++ {
		// the next cycle will take about what the last one did
		if reps >= sc.minReps && time.Since(start)*time.Duration(cycle+1) > budget*time.Duration(cycle) {
			break
		}
		var logs, ms, simS, slows, mallocs, kb float64
		var n int
		for world := 0; world < worlds; world++ {
			runs := w.worldRuns(seed, world, sc)
			b, bslow, err := timeBuilds(runs, buildsPerRep)
			if err != nil {
				return nil, err
			}
			for i := range b {
				setup = append(setup, b[i]/bslow[i])
			}
			out := w.execute(runs, 0, false)
			reps++
			rep.Attempted += len(runs)
			bad := out.failures
			if refs[world] == nil {
				refs[world] = &out
			} else {
				bad = append(bad, sameOutputs(fmt.Sprintf("rep %d", reps), *refs[world], out)...)
			}
			rep.fail(min(len(bad), len(runs)), bad...)
			if len(out.runWall) != len(runs) {
				continue // a build failed, and is reported
			}
			for i, d := range out.runWall {
				logs += math.Log(d.Seconds() * 1000 / runs[i].opts.Duration / out.slow)
				n++
			}
			ms += out.wall.Seconds() * 1000
			simS += simSeconds(runs)
			slows += out.slow * out.wall.Seconds() * 1000
			mallocs += float64(out.mallocs)
			kb += out.allocKB
		}
		if n == 0 {
			break
		}
		wall = append(wall, math.Exp(logs/float64(n)))
		total = append(total, ms/simS)
		slow = append(slow, slows/ms)
		allocs = append(allocs, mallocs/simS)
		allocKB = append(allocKB, kb/simS)
	}
	var all outcome // every world's reference outputs, in world order
	for _, r := range refs {
		if r != nil {
			all.sums = append(all.sums, r.sums...)
			all.digests = append(all.digests, r.digests...)
		}
	}
	rep.Fingerprint = fingerprint(all)
	rep.Reps = reps
	rep.Metrics["wall_ms_per_sim_s"] = metric{Value: median(wall), Unit: "ms", Samples: wall}
	rep.Metrics["setup_s"] = metric{Value: median(setup), Unit: "s", Samples: setup}
	rep.Metrics["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
	rep.Metrics["allocs_per_sim_s"] = metric{Value: median(allocs), Unit: "1/s", Samples: allocs}
	rep.Metrics["alloc_kb_per_sim_s"] = metric{Value: median(allocKB), Unit: "KB/s", Samples: allocKB}
	rep.Metrics["pdr"] = metric{Value: meanPDR(all.sums), Unit: "ratio"}
	rep.Info = map[string]metric{
		"wall_raw_ms_per_sim_s": {Value: median(total), Unit: "ms", Samples: total},
		"machine_slowdown":      {Value: median(slow), Unit: "ratio", Samples: slow},
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// peakRSSMB is the process's VmHWM. Each workload runs in its own process,
// so this is the workload's peak.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
