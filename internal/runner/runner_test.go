package runner

import (
	"errors"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/scenario"
	"github.com/vanetlab/relroute/internal/sim"
)

func quickOpts(seed int64) scenario.Options {
	return scenario.Options{
		Seed: seed, Vehicles: 25, HighwayLength: 1200,
		Duration: 15, Flows: 2, FlowPackets: 4,
	}
}

func testCampaign() Campaign {
	return New(Spec{
		Protocols: []string{"Greedy", "AODV"},
		Grid:      []scenario.Options{quickOpts(0), {Vehicles: 15, HighwayLength: 1000, Duration: 12, Flows: 2, FlowPackets: 3}},
		Seeds:     []int64{1, 2},
	})
}

func TestSpecExpansionOrder(t *testing.T) {
	c := testCampaign()
	if len(c.Runs) != 8 {
		t.Fatalf("runs = %d, want 2 protocols × 2 grid points × 2 seeds = 8", len(c.Runs))
	}
	// protocol-major, grid point next, seeds innermost
	wantProto := []string{"Greedy", "Greedy", "Greedy", "Greedy", "AODV", "AODV", "AODV", "AODV"}
	wantSeed := []int64{1, 2, 1, 2, 1, 2, 1, 2}
	for i, r := range c.Runs {
		if r.Protocol != wantProto[i] || r.Opts.Seed != wantSeed[i] {
			t.Fatalf("run %d = %s seed %d, want %s seed %d",
				i, r.Protocol, r.Opts.Seed, wantProto[i], wantSeed[i])
		}
	}
	// without a Seeds axis, the grid point's own seed survives
	runs := Spec{Protocols: []string{"Greedy"}, Grid: []scenario.Options{quickOpts(42)}}.Runs()
	if len(runs) != 1 || runs[0].Opts.Seed != 42 {
		t.Fatalf("seedless spec mangled options: %+v", runs)
	}
}

// TestParallelExecutionDeterministic is the determinism contract: the same
// campaign produces identical summaries, in identical order, whether the
// pool uses one worker or many.
func TestParallelExecutionDeterministic(t *testing.T) {
	seq, err := Summaries(Pool{Workers: 1}.Execute(testCampaign()))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Summaries(Pool{Workers: 8}.Execute(testCampaign()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seq, par) {
		t.Fatalf("parallel execution diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
	// sanity: the campaign actually simulated something
	sent := 0
	for _, s := range seq {
		sent += s.DataSent
	}
	if sent == 0 {
		t.Fatal("campaign sent no data packets")
	}
}

func TestExecuteErrorIsolation(t *testing.T) {
	var c Campaign
	c.Add(
		Run{Protocol: "Greedy", Opts: quickOpts(1)},
		Run{Protocol: "NoSuchProto", Opts: quickOpts(1)},
	)
	results := Pool{Workers: 2}.Execute(c)
	if results[0].Err != nil {
		t.Fatalf("healthy run failed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Fatal("unknown protocol did not error")
	}
	if _, err := Summaries(results); err == nil {
		t.Fatal("Summaries swallowed the run error")
	}
}

func TestSetupHookRuns(t *testing.T) {
	called := false
	var c Campaign
	c.Add(Run{Protocol: "Greedy", Opts: quickOpts(1), Setup: func(sc *scenario.Scenario) {
		called = true
		if sc.World == nil {
			t.Error("setup hook received unbuilt scenario")
		}
	}})
	if _, err := Summaries(Pool{Workers: 1}.Execute(c)); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("setup hook not invoked")
	}
}

// TestTimeoutInterruptsHungRun wedges one run with a self-rescheduling
// zero-delay event — simulated time never advances — and checks the pool's
// timeout degrades it to a recorded error while the sibling run completes.
func TestTimeoutInterruptsHungRun(t *testing.T) {
	var c Campaign
	c.Add(
		Run{Protocol: "Greedy", Opts: quickOpts(1), Setup: func(sc *scenario.Scenario) {
			eng := sc.World.Engine()
			var spin func()
			spin = func() { eng.After(0, spin) }
			eng.After(0, spin)
		}},
		Run{Protocol: "Greedy", Opts: quickOpts(1)},
	)
	results := Pool{Workers: 2, Timeout: 100 * time.Millisecond}.Execute(c)
	if results[0].Err == nil {
		t.Fatal("hung run completed without error")
	}
	if !errors.Is(results[0].Err, sim.ErrInterrupted) {
		t.Fatalf("hung run error = %v, want wrapped sim.ErrInterrupted", results[0].Err)
	}
	if !strings.Contains(results[0].Err.Error(), "timed out") {
		t.Fatalf("hung run error %q does not mention the timeout", results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("sibling run failed: %v", results[1].Err)
	}
	if results[1].Summary.DataSent == 0 {
		t.Fatal("sibling run simulated nothing")
	}
}

// TestFailedRunIsNotRetried: a run is a deterministic simulation, so a
// second try would fail the same way. A run whose Setup panics records the
// panic after one build, and a scenario-build error records before Setup.
func TestFailedRunIsNotRetried(t *testing.T) {
	var calls atomic.Int64
	panics := func(*scenario.Scenario) {
		calls.Add(1)
		panic("persistent fault")
	}
	var c Campaign
	c.Add(Run{Protocol: "Greedy", Opts: quickOpts(1), Setup: panics})
	results := Pool{Workers: 1}.Execute(c)
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panic: persistent fault") {
		t.Fatalf("err = %v, want the recovered panic", results[0].Err)
	}
	if calls.Load() != 1 {
		t.Fatalf("setup ran %d times, want 1", calls.Load())
	}
}

// TestBuildErrorsAreNotRetried: a bad configuration fails its run at build
// time, before any Setup hook sees a scenario.
func TestBuildErrorsAreNotRetried(t *testing.T) {
	var calls atomic.Int64
	var c Campaign
	c.Add(Run{Protocol: "NoSuchProto", Opts: quickOpts(1), Setup: func(*scenario.Scenario) { calls.Add(1) }})
	results := Pool{Workers: 1}.Execute(c)
	if results[0].Err == nil {
		t.Fatal("unknown protocol did not error")
	}
	if calls.Load() != 0 {
		t.Fatalf("setup ran %d times on a scenario that failed to build", calls.Load())
	}
}

func TestReplications(t *testing.T) {
	c := testCampaign() // 2 protocols × 2 grid points × 2 seeds
	results := make([]Result, len(c.Runs))
	for i, r := range c.Runs {
		results[i] = Result{Run: r}
	}
	blocks := Replications(results, 2)
	if len(blocks) != 4 {
		t.Fatalf("blocks = %d, want 4 cells", len(blocks))
	}
	for i, b := range blocks {
		if len(b) != 2 {
			t.Fatalf("block %d has %d results", i, len(b))
		}
		if b[0].Run.Protocol != b[1].Run.Protocol ||
			b[0].Run.Opts.Vehicles != b[1].Run.Opts.Vehicles {
			t.Fatalf("block %d mixes cells: %+v / %+v", i, b[0].Run, b[1].Run)
		}
	}
	if got := Replications(results, 0); len(got) != len(results) {
		t.Fatalf("k=0 should clamp to singleton blocks, got %d", len(got))
	}
}

func TestAggregateAcrossSeeds(t *testing.T) {
	spec := Spec{
		Protocols: []string{"Greedy"},
		Grid:      []scenario.Options{quickOpts(0)},
		Seeds:     []int64{1, 2, 3},
	}
	sums, err := Summaries(Pool{}.Execute(New(spec)))
	if err != nil {
		t.Fatal(err)
	}
	a := metrics.AggregateSummaries(sums)
	if a.N != 3 {
		t.Fatalf("aggregate folded %d replications, want 3", a.N)
	}
	if a.DataSent.Mean <= 0 {
		t.Fatalf("aggregate has no traffic: %+v", a.DataSent)
	}
}

// BenchmarkCampaign times one fixed 12-run campaign under a single worker
// and under GOMAXPROCS workers: the parallel case must finish measurably
// faster on multi-core hardware.
func BenchmarkCampaign(b *testing.B) {
	campaign := func() Campaign {
		return New(Spec{
			Protocols: []string{"Greedy", "AODV", "TBP-SS"},
			Grid:      []scenario.Options{quickOpts(0), {Vehicles: 35, HighwayLength: 1500, Duration: 20, Flows: 3, FlowPackets: 6}},
			Seeds:     []int64{1, 2},
		})
	}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Summaries(Pool{Workers: workers}.Execute(campaign())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
