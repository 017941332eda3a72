// Package runner executes campaigns of simulation runs on a worker pool.
//
// Every sim.Engine run is single-threaded and self-contained, so a grid of
// scenarios — the shape of every figure, table, and ablation of the paper —
// is embarrassingly parallel. The runner accepts a declarative description
// of such a grid (protocol × scenario.Options × replication seed), fans the
// runs out across a bounded number of goroutines, and collects results in
// submission order. Because each run derives all randomness from its own
// Options.Seed and results are indexed by submission position, output is
// byte-identical whether the pool uses one worker or many.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/scenario"
	"github.com/vanetlab/relroute/internal/sim"
)

// Run is one simulation execution: a protocol instantiated on one option
// set, with an optional post-build hook.
type Run struct {
	// Label tags the run for table rendering (optional; defaults to
	// "protocol/scenario-name" in results).
	Label string
	// Protocol is the routing protocol name (see scenario.Protocols).
	Protocol string
	// Opts parameterise the scenario; Opts.Seed fully determines the run.
	Opts scenario.Options
	// Setup, if non-nil, is applied to the built scenario before execution —
	// the hook for failure injection and extra instrumentation events.
	Setup func(*scenario.Scenario)
}

// Spec declares a run grid: the cross product Protocols × Grid × Seeds,
// expanded in deterministic order (protocol-major, then grid point, then
// seed).
type Spec struct {
	// Protocols to run on every grid point.
	Protocols []string
	// Grid is the list of scenario option sets.
	Grid []scenario.Options
	// Seeds are replication seeds. Each seed overrides the grid point's
	// Options.Seed for that replication. Empty means "one replication with
	// the seed already in the options".
	Seeds []int64
}

// Runs expands the spec into the ordered run list.
func (s Spec) Runs() []Run {
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0} // sentinel: keep Options.Seed
	}
	out := make([]Run, 0, len(s.Protocols)*len(s.Grid)*len(seeds))
	for _, proto := range s.Protocols {
		for _, opts := range s.Grid {
			for _, seed := range seeds {
				o := opts
				if len(s.Seeds) > 0 {
					o.Seed = seed
				}
				out = append(out, Run{Protocol: proto, Opts: o})
			}
		}
	}
	return out
}

// Campaign is an ordered batch of runs. Results always come back in the
// same order runs were added.
type Campaign struct {
	Runs []Run
}

// New builds a campaign from specs, expanding each in order.
func New(specs ...Spec) Campaign {
	var c Campaign
	for _, s := range specs {
		c.AddSpec(s)
	}
	return c
}

// Add appends explicit runs.
func (c *Campaign) Add(runs ...Run) { c.Runs = append(c.Runs, runs...) }

// AddSpec appends a spec's expansion.
func (c *Campaign) AddSpec(s Spec) { c.Runs = append(c.Runs, s.Runs()...) }

// Result pairs a run with its outcome. Exactly one of Summary/Err is
// meaningful.
type Result struct {
	Run     Run
	Summary metrics.Summary
	Err     error
}

// Pool executes campaigns on a bounded worker pool.
type Pool struct {
	// Workers is the goroutine count; <= 0 means GOMAXPROCS.
	Workers int
	// Timeout bounds each run's wall-clock time; zero means no limit. On
	// expiry the run's engine is interrupted at the next event boundary and
	// the run records a timeout error naming the simulated time and event
	// count reached, so one hung simulation degrades to a recorded failure
	// instead of wedging its worker.
	Timeout time.Duration
}

func (p Pool) workers(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Execute runs the campaign and returns one result per run, in submission
// order regardless of completion order or worker count.
func (p Pool) Execute(c Campaign) []Result {
	return p.ExecuteResumable(context.Background(), c, nil)
}

// ExecuteResumable is Execute under a cancellable context and against a
// durable campaign journal. When ctx is cancelled, in-flight runs are
// interrupted at their next event boundary and record a cancellation
// error, and no further runs start. Runs the journal already records as
// completed are skipped — their recorded summaries are returned in place,
// byte-identical to the original execution — and every newly completed
// run is appended to the journal before its worker moves on; a nil
// journal journals nothing. Killing the process and re-running the same
// campaign against the same journal therefore completes exactly the
// unfinished remainder. Results come back in submission order, one per
// run.
func (p Pool) ExecuteResumable(ctx context.Context, c Campaign, j *Journal) []Result {
	n := len(c.Runs)
	results := make([]Result, n)
	if n == 0 {
		return results
	}
	runOne := func(i int) {
		if j != nil {
			if res, ok := j.Completed(i); ok {
				label := res.Run.Label
				res.Run = c.Runs[i]
				if res.Run.Label == "" {
					res.Run.Label = label
				}
				results[i] = res
				return
			}
		}
		results[i] = p.execute(ctx, c.Runs[i])
		if j != nil && results[i].Err == nil {
			j.Record(i, results[i])
		}
	}
	workers := p.workers(n)
	if workers == 1 {
		for i := range c.Runs {
			runOne(i)
		}
		return results
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				runOne(i)
			}
		}()
	}
	wg.Wait()
	return results
}

// execute builds and runs one scenario under the pool's timeout,
// recovering panics into errors so a bad run cannot take down sibling
// workers. An interrupted run's error says the simulated time and event
// count at which its engine stopped. A failed run is not retried: every
// run is a deterministic simulation, so a second try would fail the same
// way.
func (p Pool) execute(ctx context.Context, r Run) (res Result) {
	res.Run = r
	defer func() {
		if pv := recover(); pv != nil {
			res.Err = fmt.Errorf("runner: %s: panic: %v", r.Protocol, pv)
		}
	}()
	if err := ctx.Err(); err != nil {
		res.Err = fmt.Errorf("runner: %s: %w", r.Protocol, err)
		return res
	}
	sc, err := scenario.Build(r.Protocol, r.Opts)
	if err != nil {
		res.Err = err
		return res
	}
	if r.Setup != nil {
		r.Setup(sc)
	}
	runCtx := ctx
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, p.Timeout)
		defer cancel()
	}
	if runCtx.Done() != nil {
		// Interrupt is checked at event-boundary granularity, so the
		// engine unwinds within a bounded number of events of expiry.
		stop := context.AfterFunc(runCtx, sc.World.Engine().Interrupt)
		defer stop()
	}
	sum, err := sc.Run()
	if err != nil {
		if errors.Is(err, sim.ErrInterrupted) {
			eng := sc.World.Engine()
			at := fmt.Sprintf("at t=%.2fs, %d events", eng.Now(), eng.EventCount())
			switch {
			case ctx.Err() != nil:
				err = fmt.Errorf("%w (campaign cancelled %s)", err, at)
			case p.Timeout > 0:
				err = fmt.Errorf("%w (timed out after %v %s)", err, p.Timeout, at)
			}
		}
		res.Err = err
		return res
	}
	if res.Run.Label == "" {
		res.Run.Label = r.Protocol + "/" + sc.Name
	}
	res.Summary = sum
	return res
}

// Replications groups results into consecutive blocks of k — one block
// per (protocol, grid point) cell when the campaign was expanded from
// specs whose Seeds axis has length k. It owns the "seeds expand
// innermost" invariant of Spec.Runs so callers don't re-derive it. A
// trailing partial block (len(results) not divisible by k) is dropped.
func Replications(results []Result, k int) [][]Result {
	if k < 1 {
		k = 1
	}
	out := make([][]Result, 0, len(results)/k)
	for i := 0; i+k <= len(results); i += k {
		out = append(out, results[i:i+k])
	}
	return out
}

// Summaries unwraps results into summaries, returning the first error
// encountered (annotated with the failing run) if any run failed.
func Summaries(results []Result) ([]metrics.Summary, error) {
	out := make([]metrics.Summary, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("runner: run %d (%s): %w", i, r.Run.Protocol, r.Err)
		}
		out[i] = r.Summary
	}
	return out, nil
}
