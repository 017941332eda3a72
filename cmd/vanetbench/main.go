// Command vanetbench regenerates the paper's figures and table as
// plain-text experiment reports, and sweeps protocol grids with cross-seed
// aggregation.
//
// Usage:
//
//	vanetbench                  # run everything
//	vanetbench -exp fig5        # one experiment
//	vanetbench -list            # list experiment IDs
//	vanetbench -quick           # smaller populations / shorter runs
//	vanetbench -parallel 8      # bound the simulation worker pool
//	vanetbench -exp chaos -json BENCH_chaos.json
//	                            # also write every table it ran, with
//	                            # typed cells, as one JSON report
//
//	vanetbench sweep -protocols Greedy,TBP-SS -vehicles 20,60 -seeds 5
//	                            # protocol × density × seed grid with
//	                            # mean ± 95% CI per cell
//
// Profiling: every mode accepts -cpuprofile and -memprofile to capture
// pprof profiles of the run, e.g.
//
//	vanetbench -exp abl-storm -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"github.com/vanetlab/relroute"
)

// interruptContext returns a context cancelled by the first
// SIGINT/SIGTERM — in-flight simulations are interrupted at their next
// event boundary and journaled work is flushed — while a second signal
// hard-exits.
func interruptContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "vanetbench: interrupt — stopping in-flight runs (interrupt again to hard-exit)")
		cancel()
		<-sigs
		os.Exit(130)
	}()
	return ctx, cancel
}

// parseFlags is the front half of every vanetbench mode: it adds
// -cpuprofile/-memprofile to fs, parses args, rejects leftover
// positionals (the flag package stops at the first one, so every flag
// after it would be silently ignored), and starts the profiles. The
// returned stop function must run before exit.
func parseFlags(fs *flag.FlagSet, args []string) (stop func(), err error) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile to this file")
	mem := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q: the one subcommand is sweep, and no mode takes positional arguments", fs.Arg(0))
	}
	var cpuF *os.File
	if *cpu != "" {
		f, err := os.Create(*cpu)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuF = f
	}
	return func() {
		if err := stopProfiles(cpuF, *mem); err != nil {
			fmt.Fprintln(os.Stderr, "vanetbench:", err)
		}
	}, nil
}

// stopProfiles finishes the CPU profile started into cpuF (nil = none)
// and writes the allocation profile to memPath ("" = none).
func stopProfiles(cpuF *os.File, memPath string) error {
	if cpuF != nil {
		pprof.StopCPUProfile()
		if err := cpuF.Close(); err != nil {
			return err
		}
	}
	if memPath == "" {
		return nil
	}
	f, err := os.Create(memPath)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC() // up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "sweep":
		err = runSweep(args[1:])
	default:
		err = run(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vanetbench:", err)
		os.Exit(relroute.ExitStatus(err))
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vanetbench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment ID or \"all\"")
		list     = fs.Bool("list", false, "list experiments and exit")
		seed     = fs.Int64("seed", 1, "random seed")
		quick    = fs.Bool("quick", false, "reduced populations and durations")
		parallel = fs.Int("parallel", 0, "simulation workers (0 = GOMAXPROCS)")
		manifest = fs.String("manifest", "", "durable campaign manifest directory: completed runs are journaled there, and an interrupted invocation re-run with the same -manifest resumes instead of re-executing them")
		jsonOut  = fs.String("json", "", "also write every table run, with typed cells, to this file as JSON")
	)
	stop, err := parseFlags(fs, args)
	if err != nil {
		return err
	}
	defer stop()
	if *list {
		for _, e := range relroute.Experiments() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return nil
	}
	ctx, cancel := interruptContext()
	defer cancel()
	cfg := relroute.ExperimentConfig{
		Seed: *seed, Quick: *quick, Workers: *parallel,
		Context: ctx, ManifestDir: *manifest,
	}
	resumable := func(err error) error {
		if (errors.Is(err, relroute.ErrInterrupted) || errors.Is(err, context.Canceled)) && *manifest != "" {
			fmt.Fprintf(os.Stderr, "vanetbench: interrupted; completed runs are journaled — re-run with -manifest %s to resume\n", *manifest)
		}
		return err
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = nil
		for _, e := range relroute.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	rep := report{Seed: *seed, Quick: *quick}
	for _, id := range ids {
		tab, err := relroute.RunExperiment(id, cfg)
		if err != nil {
			if *exp == "all" {
				err = fmt.Errorf("experiment %s: %w", id, err)
			}
			return resumable(err)
		}
		tab.Render(os.Stdout)
		rep.Tables = append(rep.Tables, tab)
	}
	if *jsonOut == "" {
		return nil
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*jsonOut, append(enc, '\n'), 0o644)
}

// report is the -json document: every table the invocation ran. CI
// archives the chaos and link-accuracy ones as BENCH_chaos.json and
// BENCH_linkacc.json.
type report struct {
	Seed   int64             `json:"seed"`
	Quick  bool              `json:"quick"`
	Tables []*relroute.Table `json:"tables"`
}

// runSweep executes a protocol × vehicles × seed grid on the batch runner
// and renders one row per (protocol, density) cell, aggregated across
// seeds as mean ± 95% CI.
func runSweep(args []string) error {
	fs := flag.NewFlagSet("vanetbench sweep", flag.ContinueOnError)
	var (
		protocols = fs.String("protocols", "Greedy,TBP-SS", "comma-separated protocol names")
		vehicles  = fs.String("vehicles", "20,60,100", "comma-separated vehicle counts")
		seeds     = fs.Int("seeds", 3, "replication seeds per cell")
		seed0     = fs.Int64("seed", 1, "first replication seed")
		duration  = fs.Float64("duration", 30, "simulated seconds per run")
		length    = fs.Float64("length", 2000, "highway length in meters")
		speed     = fs.Float64("speed", 30, "mean vehicle speed in m/s")
		parallel  = fs.Int("parallel", 0, "simulation workers (0 = GOMAXPROCS)")
		manifest  = fs.String("manifest", "", "durable campaign manifest directory; re-running an interrupted sweep with the same -manifest resumes it")
	)
	stop, err := parseFlags(fs, args)
	if err != nil {
		return err
	}
	defer stop()
	protos := splitList(*protocols)
	counts, err := splitInts(*vehicles)
	if err != nil {
		return fmt.Errorf("sweep: -vehicles: %w", err)
	}
	if len(protos) == 0 || len(counts) == 0 || *seeds < 1 {
		return fmt.Errorf("sweep: need at least one protocol, one vehicle count, and one seed")
	}
	for _, v := range counts {
		// reject rather than let scenario defaults silently relabel the row
		if v < 2 {
			return fmt.Errorf("sweep: -vehicles: count %d below the 2 needed for a flow", v)
		}
	}

	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = *seed0 + int64(i)
	}
	// one spec per protocol so infrastructure options (RSUs for DRR, ferry
	// buses for Bus) apply only to the protocol that uses them and don't
	// perturb the other protocols' worlds
	var camp relroute.Campaign
	for _, proto := range protos {
		grid := make([]relroute.Options, 0, len(counts))
		for _, v := range counts {
			opts := relroute.Options{
				Vehicles: v, HighwayLength: *length,
				SpeedMean: *speed, Duration: *duration,
			}
			if proto == "Bus" {
				opts.Buses = 2 // the ferry protocol needs ≥1 bus; DRR's RSU default is built in
			}
			// refuse before the manifest or the pool sees a run that cannot build
			if err := opts.Validate(); err != nil {
				return fmt.Errorf("sweep: %w", err)
			}
			grid = append(grid, opts)
		}
		camp.AddSpec(relroute.BatchSpec{Protocols: []string{proto}, Grid: grid, Seeds: seedList})
	}
	ctx, cancel := interruptContext()
	defer cancel()
	results, err := relroute.RunCampaign(relroute.ExperimentConfig{
		Workers: *parallel, Context: ctx, ManifestDir: *manifest,
	}, camp)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}

	tab := &relroute.Table{
		ID:    "sweep",
		Title: fmt.Sprintf("protocol × density sweep (%d seeds, mean ± 95%% CI)", *seeds),
		Columns: []relroute.Column{
			{Name: "protocol"}, {Name: "vehicles"}, {Name: "PDR"},
			{Name: "delay(s)"}, {Name: "overhead"}, {Name: "breaks"},
		},
	}
	for _, block := range relroute.Replications(results, *seeds) {
		sums, err := relroute.Summaries(block)
		if err != nil {
			if ctx.Err() != nil && *manifest != "" {
				fmt.Fprintf(os.Stderr, "vanetbench: interrupted; completed runs are journaled — re-run with -manifest %s to resume\n", *manifest)
			}
			return fmt.Errorf("sweep: %w", err)
		}
		agg := relroute.AggregateSummaries(sums)
		cell := block[0].Run
		tab.AddRow(
			cell.Protocol,
			strconv.Itoa(cell.Opts.Vehicles),
			fmtCI(agg.PDR, true),
			fmtCI(agg.MeanDelay, false),
			fmtCI(agg.Overhead, false),
			fmtCI(agg.Breaks, false),
		)
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("seeds %d..%d; %g s per run on a %g m highway at %g m/s mean speed",
			*seed0, *seed0+int64(*seeds)-1, *duration, *length, *speed))
	tab.Render(os.Stdout)
	return nil
}

func fmtCI(s relroute.Stat, pct bool) string {
	if pct {
		return fmt.Sprintf("%.1f%%±%.1f", s.Mean*100, s.CI95*100)
	}
	return fmt.Sprintf("%.2f±%.2f", s.Mean, s.CI95)
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
