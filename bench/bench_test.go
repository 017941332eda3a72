package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/scenario"
)

// spec mirrors the parts of ../BENCHMARK.json the tests pin the code to.
type benchSpec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []gate `json:"end_to_end"`
	PerLayer []gate `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	nameRE     = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	pdrFloorRE = regexp.MustCompile(`^pdr .* below floor`)
)

// Every metric BENCHMARK.json names is emitted exactly once by the pass it
// belongs to, with the unit it declares, on every workload; nothing else is
// emitted. The traced pass's own checks cover the rest of the contract:
// ladder rung r2 and the segmented AdvanceTo drive give the summaries and
// digests of a plain Scenario.Run, and so does the twin at the other shard
// count.
func TestEveryWorkloadEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	spec := loadSpec(t)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the suite's default budget is %d", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, have)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			e2e, err := measure(&w, 1, quick, 0)
			if err != nil {
				t.Fatal(err)
			}
			layers, err := traced(&w, 1, quick, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, pass := range []struct {
				rep  *report
				want []gate
			}{{e2e, spec.EndToEnd}, {layers, spec.PerLayer}} {
				// the quick worlds are too small for the PDR floors to mean much
				for _, f := range pass.rep.Failures {
					if !pdrFloorRE.MatchString(f) {
						t.Errorf("check failed: %s", f)
					}
				}
				want := map[string]string{}
				for _, g := range pass.want {
					if !nameRE.MatchString(g.Name) {
						t.Errorf("metric name %q breaks the naming rule", g.Name)
					}
					if _, dup := want[g.Name]; dup {
						t.Errorf("%s declared twice", g.Name)
					}
					want[g.Name] = g.Unit
				}
				for name, m := range pass.rep.Metrics {
					unit, ok := want[name]
					if !ok {
						t.Errorf("emits %s, which BENCHMARK.json does not declare", name)
					} else if unit != m.Unit {
						t.Errorf("%s emitted in %q, declared in %q", name, m.Unit, unit)
					}
					delete(want, name)
				}
				for name := range want {
					t.Errorf("%s declared but not emitted", name)
				}
			}
			if want := max(quick.minReps, w.worlds); e2e.Reps != want {
				t.Errorf("no budget: want the minimum of %d repetitions, ran %d", want, e2e.Reps)
			}
			// of a replicated workload the traced pass runs the first world only
			if w.worlds <= 1 && e2e.Fingerprint != layers.Fingerprint {
				t.Errorf("traced pass simulated something else: %s vs %s", layers.Fingerprint, e2e.Fingerprint)
			}
		})
	}
}

// The untraced pass drives a macro world in segments, the probe between
// them; that must be the run a user's plain Scenario.Run makes.
func TestSegmentedRepetitionEqualsAPlainRun(t *testing.T) {
	for _, name := range []string{"hwy-beacon", "city-probe"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		runs := w.worldRuns(5, 0, quick)
		sc, _, err := runs[0].build(rungFull, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		plain := outcome{sums: []metrics.Summary{sum}, digests: []uint64{sc.World.Digest()}}
		got := w.execute(runs, 0, false)
		for _, bad := range sameOutputs(name, plain, got) {
			t.Error(bad)
		}
		if got.wall <= 0 || got.slow <= 0 {
			t.Errorf("%s: wall %v at slowdown %v", name, got.wall, got.slow)
		}
	}
}

// wall_ms_per_sim_s is a geometric mean over runs, so a campaign repetition
// must come back with one clock reading per run, and they must add up.
func TestCampaignRepetitionTimesEveryRun(t *testing.T) {
	w, err := findWorkload("paper-campaign")
	if err != nil {
		t.Fatal(err)
	}
	runs := w.worldRuns(5, 0, quick)
	out := w.execute(runs, 0, false)
	if len(out.failures) > 0 && !pdrFloorRE.MatchString(out.failures[0]) {
		t.Fatal(out.failures)
	}
	if len(out.runWall) != len(runs) {
		t.Fatalf("%d clock readings for %d runs", len(out.runWall), len(runs))
	}
	var sum time.Duration
	for i, d := range out.runWall {
		if d <= 0 {
			t.Errorf("run %d took %v", i, d)
		}
		sum += d
	}
	if sum != out.wall {
		t.Errorf("runs add up to %v, the repetition to %v", sum, out.wall)
	}
}

// The probe must cost the timed regions nothing but time between them: no
// allocation (allocs_per_sim_s is read across it), and a slowdown that is a
// plain ratio of slice times.
func TestProbeAllocatesNothingAndReadsASlowdown(t *testing.T) {
	p := newProbe()
	p.run(1)
	if n := testing.AllocsPerRun(3, func() { p.run(1) }); n != 0 {
		t.Errorf("a probe slice allocates %v times", n)
	}
	m := p.mark()
	if got := p.slowdown(m); got != 1 {
		t.Errorf("no slices since the mark: slowdown %v, want 1", got)
	}
	p.run(2)
	want := float64(p.spent-m.spent) / (2 * float64(probeRef))
	if got := p.slowdown(m); got != want || got <= 0 {
		t.Errorf("slowdown %v, want %v", got, want)
	}
}

func TestLocalFlowsHonoursItsBandAndSeed(t *testing.T) {
	build := func(seed int64) []flowPick {
		r := highway("Greedy")(seed, quick)[0]
		_, lf, err := r.build(rungFull, 0)
		if err != nil {
			t.Fatal(err)
		}
		return lf.Picked
	}
	a, b, c := build(3), build(3), build(4)
	if len(a) != quick.flows {
		t.Fatalf("wired %d flows, want %d", len(a), quick.flows)
	}
	for _, p := range a {
		if p.Dist < 300 || p.Dist > 1500 || p.Src == p.Dst {
			t.Errorf("flow %d→%d at %.0f m is outside [300,1500]", p.Src, p.Dst, p.Dist)
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed picked different flows")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds picked the same flows")
	}
}

// The ladder's reduced rungs really are reduced: r0 sends nothing at all,
// r1 only beacons.
func TestLadderRungsCarryNoTraffic(t *testing.T) {
	r := cityProbe(1, quick)[0]
	for _, v := range []variant{rungTick, rungBeacon} {
		sc, _, err := r.build(v, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if sum.DataSent != 0 {
			t.Errorf("rung %d originated %d data packets", v, sum.DataSent)
		}
		if v == rungTick && sum.MACTransmits != 0 {
			t.Errorf("tick rung transmitted %d frames", sum.MACTransmits)
		}
		if v == rungBeacon && sum.MACTransmits == 0 {
			t.Error("beacon rung transmitted nothing")
		}
	}
}

func TestJudge(t *testing.T) {
	lower := gate{Name: "wall", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 100}
	scale := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 70, 130, 100, 95, 105, 85}
	for _, c := range []struct {
		name           string
		parent, change []float64
		paired         bool
		want           string
	}{
		{"slower beyond the bound", steady, scale(steady, 1.2), false, "REGRESSED"},
		{"same", steady, steady, false, "within bound"},
		{"noisy parent hides a small change", noisy, scale(noisy, 1.02), false, "unresolved (spread exceeds bound)"},
		{"every run faster than every parent run", noisy, scale(steady, 0.5), false, "within bound"},
		{"paired gain", steady, scale(steady, 0.8), true, "GAIN (10/10 pairs)"},
		{"paired, gap inside the parent's spread", noisy, scale(noisy, 0.99), true, "unresolved (spread exceeds bound)"},
	} {
		if got := lower.judge(c.parent, c.change, lower.Bound, c.paired); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json's pdr bound spans ten seeds; on one seed pdr is exact, and
// a drop the cross-seed bound would wave through is a regression.
func TestSameSeedBoundsAreTight(t *testing.T) {
	pdr := gate{Name: "pdr", Better: "higher", Bound: 0.25}
	for _, c := range []struct {
		base, v  float64
		sameSeed bool
		want     string
	}{
		{1.00, 0.76, false, "within bound"},
		{1.00, 0.76, true, "REGRESSED"},
		{0.53, 0.52, true, "REGRESSED"},
		{0.53, 0.526, true, "within bound"},
		{0.53, 0.60, true, "within bound"},
	} {
		bound, _ := pdr.allowed(c.base, c.sameSeed)
		if got := pdr.judge([]float64{c.base}, []float64{c.v}, bound, false); got != c.want {
			t.Errorf("pdr %.3f → %.3f, same seed %v: %q, want %q", c.base, c.v, c.sameSeed, got, c.want)
		}
	}
	allocs := gate{Name: "allocs_per_sim_s", Better: "lower", Bound: 0.12}
	if got, exact := allocs.allowed(40000, true); got != 0.02 || !exact {
		t.Errorf("same-seed allocation bound %v (exact %v), want 0.02 exact", got, exact)
	}
	wall := gate{Name: "wall_ms_per_sim_s", Better: "lower", Bound: 0.25}
	if got, exact := wall.allowed(100, true); got != wall.Bound || exact {
		t.Errorf("wall-clock is the machine's, not the seed's: bound %v (exact %v), want %v", got, exact, wall.Bound)
	}
}

// A change with more failed runs than its parent has regressed even when
// every metric reads the same.
func TestCompareRejectsMoreFailedRuns(t *testing.T) {
	spec := loadSpec(t)
	t.Chdir("..") // where BENCHMARK.json is
	write := func(name string, failed int) string {
		res := suiteResult{Seed: 1, Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			rep := &report{Attempted: 10, Failed: failed, Fingerprint: "f", Metrics: map[string]metric{}}
			for _, g := range spec.EndToEnd {
				rep.Metrics[g.Name] = metric{Value: 1, Unit: g.Unit}
			}
			res.Workloads[w.name] = &workloadResult{EndToEnd: rep}
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	clean, failing := write("clean.json", 0), write("failing.json", 1)
	if err := compareFiles([]string{clean, clean}, 0); err != nil {
		t.Errorf("equal results: %v", err)
	}
	if err := compareFiles([]string{failing, failing}, 0); err != nil {
		t.Errorf("failures the parent has too are not the change's: %v", err)
	}
	if err := compareFiles([]string{clean, failing}, 0); err == nil {
		t.Error("a change with more failed runs passed the comparison")
	}
}

func TestLayerTableMatchesProtocols(t *testing.T) {
	var per []string
	for name := range layerUnits {
		per = append(per, name)
	}
	sort.Strings(per)
	if len(per) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(per))
	}
	for _, p := range scenario.Protocols() {
		if _, ok := layerUnits["routing.ms_per_sim_s."+p]; !ok {
			t.Errorf("no per-protocol row for %s", p)
		}
	}
}
