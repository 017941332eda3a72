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
//
//	vanetbench sweep -protocols Greedy,TBP-SS -vehicles 20,60 -seeds 5
//	                            # protocol × density × seed grid with
//	                            # mean ± 95% CI per cell
//
//	vanetbench scale -vehicles 100,200,500,1000 -densities 50,100 -seeds 3
//	                            # simulator-throughput sweep: vehicles ×
//	                            # density (veh/km; highway length scales to
//	                            # hold it), wall-clock per run, optional
//	                            # -json report for CI archival
//
//	vanetbench linkacc -json BENCH_linkacc.json
//	                            # reliability plane accuracy: every link
//	                            # estimator × {highway, city-rush, trace},
//	                            # prediction MAE/bias vs ground-truth
//	                            # link breaks
//
//	vanetbench chaos -json BENCH_chaos.json
//	                            # fault plane degradation: every chaos
//	                            # profile × protocol, fault-window PDR,
//	                            # time-to-reroute, recovery latency
//
// Profiling: both modes accept -cpuprofile and -memprofile to capture
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
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

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

// profileFlags registers -cpuprofile/-memprofile on fs and returns a
// start function whose returned stop function must run before exit.
func profileFlags(fs *flag.FlagSet) (start func() (stop func() error, err error)) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile to this file")
	mem := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	return func() (func() error, error) {
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
		return func() error {
			if cpuF != nil {
				pprof.StopCPUProfile()
				if err := cpuF.Close(); err != nil {
					return err
				}
			}
			if *mem != "" {
				f, err := os.Create(*mem)
				if err != nil {
					return fmt.Errorf("memprofile: %w", err)
				}
				defer f.Close()
				runtime.GC() // up-to-date allocation statistics
				if err := pprof.WriteHeapProfile(f); err != nil {
					return fmt.Errorf("memprofile: %w", err)
				}
			}
			return nil
		}, nil
	}
}

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "sweep":
		err = runSweep(args[1:])
	case len(args) > 0 && args[0] == "scale":
		err = runScale(args[1:])
	case len(args) > 0 && args[0] == "linkacc":
		err = runLinkAcc(args[1:])
	case len(args) > 0 && args[0] == "chaos":
		err = runChaos(args[1:])
	default:
		err = run(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vanetbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vanetbench", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "all", "experiment ID or \"all\"")
		list      = fs.Bool("list", false, "list experiments and exit")
		seed      = fs.Int64("seed", 1, "random seed")
		quick     = fs.Bool("quick", false, "reduced populations and durations")
		parallel  = fs.Int("parallel", 0, "simulation workers (0 = GOMAXPROCS)")
		manifest  = fs.String("manifest", "", "durable campaign manifest directory: completed runs are journaled there, and an interrupted invocation re-run with the same -manifest resumes instead of re-executing them")
		ckptDir   = fs.String("checkpoint-dir", "", "auto-checkpoint every simulation into this directory (post-mortem snapshots for failed runs)")
		ckptEvery = fs.Float64("checkpoint-every", 0, "simulated seconds between checkpoint boundaries (0 = default)")
	)
	startProfiles := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "vanetbench:", perr)
		}
	}()
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
		CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery,
	}
	resumable := func(err error) error {
		if (errors.Is(err, relroute.ErrInterrupted) || errors.Is(err, context.Canceled)) && *manifest != "" {
			fmt.Fprintf(os.Stderr, "vanetbench: interrupted; completed runs are journaled — re-run with -manifest %s to resume\n", *manifest)
		}
		return err
	}
	if *exp != "all" {
		tab, err := relroute.RunExperiment(*exp, cfg)
		if err != nil {
			return resumable(err)
		}
		tab.Render(os.Stdout)
		return nil
	}
	for _, e := range relroute.Experiments() {
		tab, err := e.Run(cfg)
		if err != nil {
			return resumable(fmt.Errorf("experiment %s: %w", e.ID, err))
		}
		tab.Render(os.Stdout)
	}
	return nil
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
	startProfiles := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "vanetbench:", perr)
		}
	}()
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
			grid = append(grid, opts)
		}
		camp.AddSpec(relroute.BatchSpec{Protocols: []string{proto}, Grid: grid, Seeds: seedList})
	}
	ctx, cancel := interruptContext()
	defer cancel()
	pool := relroute.BatchPool{Workers: *parallel}
	var results []relroute.BatchResult
	if *manifest != "" {
		if err := os.MkdirAll(*manifest, 0o755); err != nil {
			return fmt.Errorf("sweep: manifest: %w", err)
		}
		path := filepath.Join(*manifest, fmt.Sprintf("campaign-%016x.jsonl", relroute.CampaignFingerprint(camp)))
		j, err := relroute.OpenCampaignJournal(path, camp)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		results = pool.ExecuteResumable(ctx, camp, j)
		if err := j.Close(); err != nil {
			return fmt.Errorf("sweep: manifest: %w", err)
		}
	} else {
		results = pool.ExecuteContext(ctx, camp)
	}

	tab := &relroute.Table{
		ID:    "sweep",
		Title: fmt.Sprintf("protocol × density sweep (%d seeds, mean ± 95%% CI)", *seeds),
		Columns: []string{
			"protocol", "vehicles", "PDR", "delay(s)", "overhead", "breaks",
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

// scaleCell is one (vehicles, density) point of the scale sweep, averaged
// over seeds. The churn fields are populated by -churn: the same cell run
// as an open world with Poisson arrivals and lifetime-bounded departures.
type scaleCell struct {
	Vehicles  int     `json:"vehicles"`
	DensityKm float64 `json:"density_veh_per_km"`
	LengthM   float64 `json:"highway_length_m"`
	Seeds     int     `json:"seeds"`
	MeanMs    float64 `json:"mean_ms"`
	MinMs     float64 `json:"min_ms"`
	// EventsPerSec is simulator throughput: executed engine events per
	// wall-clock second, averaged over seeds — the scheduling-plane figure
	// that stays comparable when scenario geometry changes ms/run.
	EventsPerSec float64 `json:"events_per_sec"`
	PDR          float64 `json:"pdr"`
	ChurnMeanMs  float64 `json:"churn_mean_ms,omitempty"`
	ChurnPDR     float64 `json:"churn_pdr,omitempty"`
	ChurnJoins   float64 `json:"churn_joins,omitempty"`
	ChurnLeaves  float64 `json:"churn_leaves,omitempty"`
}

// scaleReport is the -json document CI archives next to BENCH_core.json.
type scaleReport struct {
	Protocol string      `json:"protocol"`
	Duration float64     `json:"sim_duration_s"`
	Results  []scaleCell `json:"results"`
}

// runScale executes the simulator-throughput sweep the scale benchmarks
// are built on: a vehicles × density grid of flooding (or any protocol)
// runs, timed wall-clock. The highway length scales with the vehicle count
// so each density column holds vehicles-per-km constant — doubling n
// doubles the world instead of compressing it. Runs execute sequentially
// so per-run timings aren't polluted by sibling runs.
func runScale(args []string) error {
	fs := flag.NewFlagSet("vanetbench scale", flag.ContinueOnError)
	var (
		protocol  = fs.String("protocol", "Flooding", "protocol to scale")
		vehicles  = fs.String("vehicles", "100,200,500,1000", "comma-separated vehicle counts")
		densities = fs.String("densities", "100", "comma-separated densities in vehicles/km")
		seeds     = fs.Int("seeds", 1, "replication seeds per cell")
		seed0     = fs.Int64("seed", 1, "first replication seed")
		duration  = fs.Float64("duration", 20, "simulated seconds per run")
		churn     = fs.Bool("churn", false, "add an open-world churn column (Poisson arrivals + departures) per cell")
		jsonOut   = fs.String("json", "", "write a machine-readable report to this file")
	)
	startProfiles := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "vanetbench:", perr)
		}
	}()
	counts, err := splitInts(*vehicles)
	if err != nil {
		return fmt.Errorf("scale: -vehicles: %w", err)
	}
	dens, err := splitFloats(*densities)
	if err != nil {
		return fmt.Errorf("scale: -densities: %w", err)
	}
	if len(counts) == 0 || len(dens) == 0 || *seeds < 1 {
		return fmt.Errorf("scale: need at least one vehicle count, one density, and one seed")
	}
	for _, v := range counts {
		if v < 2 {
			return fmt.Errorf("scale: -vehicles: count %d below the 2 needed for a flow", v)
		}
	}
	for _, d := range dens {
		if d <= 0 {
			return fmt.Errorf("scale: -densities: density must be positive, got %g", d)
		}
	}

	rep := scaleReport{Protocol: *protocol, Duration: *duration}
	columns := []string{"vehicles", "veh/km", "length(m)", "mean ms/run", "min ms/run", "events/s", "PDR"}
	if *churn {
		columns = append(columns, "churn ms/run", "churn PDR", "joins/leaves")
	}
	tab := &relroute.Table{
		ID:      "scale",
		Title:   fmt.Sprintf("%s simulator throughput (vehicles × density, %d seed(s))", *protocol, *seeds),
		Columns: columns,
	}
	for _, d := range dens {
		for _, v := range counts {
			length := float64(v) / d * 1000
			cell := scaleCell{Vehicles: v, DensityKm: d, LengthM: length, Seeds: *seeds, MinMs: math.Inf(1)}
			var pdrSum float64
			for s := 0; s < *seeds; s++ {
				opts := relroute.Options{
					Seed: *seed0 + int64(s), Vehicles: v,
					HighwayLength: length, Duration: *duration,
					Flows: 2, FlowPackets: 5,
				}
				t0 := time.Now()
				sum, err := relroute.Run(*protocol, opts)
				if err != nil {
					return fmt.Errorf("scale: %d vehicles at %g veh/km: %w", v, d, err)
				}
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				cell.MeanMs += ms
				cell.MinMs = math.Min(cell.MinMs, ms)
				cell.EventsPerSec += float64(sum.Events) / (ms / 1000)
				pdrSum += sum.PDR
			}
			cell.MeanMs /= float64(*seeds)
			cell.EventsPerSec /= float64(*seeds)
			cell.PDR = pdrSum / float64(*seeds)
			if *churn {
				var churnPDR, joins, leaves float64
				for s := 0; s < *seeds; s++ {
					opts := relroute.Options{
						Seed: *seed0 + int64(s), Vehicles: v,
						HighwayLength: length, Duration: *duration,
						Flows: 2, FlowPackets: 5,
						// replace the population roughly once over the run
						ArrivalRate:  float64(v) / *duration,
						MeanLifetime: *duration / 2,
					}
					t0 := time.Now()
					sum, err := relroute.Run(*protocol, opts)
					if err != nil {
						return fmt.Errorf("scale: churn %d vehicles at %g veh/km: %w", v, d, err)
					}
					cell.ChurnMeanMs += float64(time.Since(t0)) / float64(time.Millisecond)
					churnPDR += sum.PDR
					joins += float64(sum.Joins)
					leaves += float64(sum.Leaves)
				}
				cell.ChurnMeanMs /= float64(*seeds)
				cell.ChurnPDR = churnPDR / float64(*seeds)
				cell.ChurnJoins = joins / float64(*seeds)
				cell.ChurnLeaves = leaves / float64(*seeds)
			}
			rep.Results = append(rep.Results, cell)
			row := []string{
				strconv.Itoa(v),
				fmt.Sprintf("%g", d),
				fmt.Sprintf("%.0f", length),
				fmt.Sprintf("%.1f", cell.MeanMs),
				fmt.Sprintf("%.1f", cell.MinMs),
				fmt.Sprintf("%.0f", cell.EventsPerSec),
				fmt.Sprintf("%.1f%%", cell.PDR*100),
			}
			if *churn {
				row = append(row,
					fmt.Sprintf("%.1f", cell.ChurnMeanMs),
					fmt.Sprintf("%.1f%%", cell.ChurnPDR*100),
					fmt.Sprintf("%.0f/%.0f", cell.ChurnJoins, cell.ChurnLeaves),
				)
			}
			tab.AddRow(row...)
		}
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("%g simulated seconds per run; wall-clock timings, sequential execution", *duration))
	tab.Render(os.Stdout)
	if *jsonOut != "" {
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("scale: %w", err)
		}
		enc = append(enc, '\n')
		if err := os.WriteFile(*jsonOut, enc, 0o644); err != nil {
			return fmt.Errorf("scale: %w", err)
		}
	}
	return nil
}

// linkAccReport is the linkacc -json document CI archives as
// BENCH_linkacc.json alongside the performance benchmarks.
type linkAccReport struct {
	HorizonS float64                     `json:"audit_horizon_s"`
	Seed     int64                       `json:"seed"`
	Quick    bool                        `json:"quick"`
	Results  []relroute.LinkAccuracyCell `json:"results"`
}

// runLinkAcc executes the reliability plane's prediction-accuracy grid:
// every registered link estimator across the highway / city-rush / trace
// scenarios, each run audited against ground-truth link breaks.
func runLinkAcc(args []string) error {
	fs := flag.NewFlagSet("vanetbench linkacc", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "random seed")
		quick    = fs.Bool("quick", false, "reduced populations and durations")
		parallel = fs.Int("parallel", 0, "simulation workers (0 = GOMAXPROCS)")
		jsonOut  = fs.String("json", "", "write a machine-readable report to this file")
	)
	startProfiles := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "vanetbench:", perr)
		}
	}()
	ctx, cancel := interruptContext()
	defer cancel()
	cfg := relroute.ExperimentConfig{Seed: *seed, Quick: *quick, Workers: *parallel, Context: ctx}
	cells, err := relroute.LinkAccuracy(cfg)
	if err != nil {
		return fmt.Errorf("linkacc: %w", err)
	}
	relroute.LinkAccuracyTable(cells).Render(os.Stdout)
	if *jsonOut != "" {
		rep := linkAccReport{HorizonS: relroute.LinkAuditHorizon, Seed: *seed, Quick: *quick, Results: cells}
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("linkacc: %w", err)
		}
		enc = append(enc, '\n')
		if err := os.WriteFile(*jsonOut, enc, 0o644); err != nil {
			return fmt.Errorf("linkacc: %w", err)
		}
	}
	return nil
}

// chaosReport is the chaos -json document CI archives as BENCH_chaos.json
// alongside the other benchmark artifacts.
type chaosReport struct {
	Seed     int64                `json:"seed"`
	Quick    bool                 `json:"quick"`
	Profiles []string             `json:"profiles"`
	Results  []relroute.ChaosCell `json:"results"`
}

// runChaos executes the fault plane's degradation grid: every chaos
// profile of the chaos experiment against its protocol set, reporting
// fault-window PDR, time-to-reroute, and recovery latency per cell.
func runChaos(args []string) error {
	fs := flag.NewFlagSet("vanetbench chaos", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "random seed")
		quick    = fs.Bool("quick", false, "reduced populations and durations")
		parallel = fs.Int("parallel", 0, "simulation workers (0 = GOMAXPROCS)")
		jsonOut  = fs.String("json", "", "write a machine-readable report to this file")
	)
	startProfiles := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "vanetbench:", perr)
		}
	}()
	ctx, cancel := interruptContext()
	defer cancel()
	cfg := relroute.ExperimentConfig{Seed: *seed, Quick: *quick, Workers: *parallel, Context: ctx}
	cells, err := relroute.Chaos(cfg)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	relroute.ChaosTable(cells).Render(os.Stdout)
	if *jsonOut != "" {
		rep := chaosReport{Seed: *seed, Quick: *quick, Profiles: relroute.FaultProfiles(), Results: cells}
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
		enc = append(enc, '\n')
		if err := os.WriteFile(*jsonOut, enc, 0o644); err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
	}
	return nil
}

func splitFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
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
