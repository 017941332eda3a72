// Command vanetsim runs one VANET routing simulation and prints the
// metrics summary.
//
// Usage:
//
//	vanetsim -proto TBP-SS -vehicles 60 -duration 60 -seed 1
//	vanetsim -proto DRR -rsus 3 -vehicles 12 -length 3000
//	vanetsim -proto TBP-SS -trace city.fcd.xml        # replay a SUMO FCD trace
//	vanetsim -proto Greedy -scenario city-rush        # named scenario preset
//	vanetsim -list
//	vanetsim -list-scenarios
//
// Run records: -checkpoint writes the run's end-of-run record, with a
// digest of every world layer at each simulated second, without changing
// its output; -verify rebuilds the recorded run and checks it, naming the
// first diverging time and layers. Record on one build and verify on
// another to find where a change first moves a run. A first Ctrl-C
// interrupts the run gracefully; a second hard-exits.
//
//	vanetsim -proto TBP-SS -checkpoint run.ckpt
//	vanetsim -verify run.ckpt
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/vanetlab/relroute"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vanetsim:", err)
		os.Exit(relroute.ExitStatus(err))
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vanetsim", flag.ContinueOnError)
	var (
		proto     = fs.String("proto", "TBP-SS", "routing protocol (see -list)")
		list      = fs.Bool("list", false, "list available protocols and exit")
		listScen  = fs.Bool("list-scenarios", false, "list named scenarios and exit")
		scen      = fs.String("scenario", "", "named scenario preset (see -list-scenarios)")
		trace     = fs.String("trace", "", "replay this SUMO FCD trace file instead of synthetic mobility")
		arrival   = fs.Float64("arrival", 0, "open-world Poisson arrival rate in vehicles/s (0 = closed world)")
		lifetime  = fs.Float64("lifetime", 0, "mean vehicle lifetime in seconds for open-world runs (0 = stay to the end)")
		seed      = fs.Int64("seed", 1, "random seed (same seed => identical run)")
		vehicles  = fs.Int("vehicles", 60, "number of vehicles")
		length    = fs.Float64("length", 2000, "highway length in meters")
		city      = fs.Bool("city", false, "use a Manhattan grid instead of a highway")
		speed     = fs.Float64("speed", 30, "mean desired speed in m/s")
		speedStd  = fs.Float64("speedstd", 6, "desired speed standard deviation in m/s")
		duration  = fs.Float64("duration", 60, "simulated seconds")
		flows     = fs.Int("flows", 4, "number of CBR flows")
		packets   = fs.Int("packets", 30, "packets per flow")
		rsus      = fs.Int("rsus", 0, "road-side units (DRR protocol)")
		buses     = fs.Int("buses", 0, "ferry buses (Bus protocol)")
		shadowing = fs.Bool("shadowing", false, "log-normal shadowing channel instead of unit disk")
		rng       = fs.Float64("range", 250, "nominal radio range in meters")
		tickets   = fs.Int("tickets", 3, "TBP-SS ticket budget")
		estimator = fs.String("estimator", "", "reliability-plane link estimator (see -list-estimators; empty = composite)")
		listEst   = fs.Bool("list-estimators", false, "list link estimators and exit")
		faults    = fs.String("faults", "", "chaos profile injecting failures (see -list-faults; empty = none)")
		listFault = fs.Bool("list-faults", false, "list fault profiles and exit")
		ckptPath  = fs.String("checkpoint", "", "write the run's record (end state and per-second digest trail) to this file")
		verify    = fs.String("verify", "", "rebuild the run recorded in this file and check it, instead of starting a new run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// flag parsing stops at the first positional, so every flag after it
	// would silently keep its default
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: vanetsim takes flags only", fs.Arg(0))
	}
	if *list {
		for _, p := range relroute.Protocols() {
			fmt.Println(p)
		}
		return nil
	}
	if *listScen {
		descs := relroute.ScenarioDescriptions()
		for _, name := range relroute.Scenarios() {
			fmt.Printf("%-14s %s\n", name, descs[name])
		}
		return nil
	}
	if *listEst {
		for _, name := range relroute.Estimators() {
			fmt.Println(name)
		}
		return nil
	}
	if *listFault {
		descs := relroute.FaultProfileDescriptions()
		for _, name := range relroute.FaultProfiles() {
			fmt.Printf("%-18s %s\n", name, descs[name])
		}
		return nil
	}
	if *verify != "" {
		return verifyRecord(*verify)
	}
	opts := relroute.Options{
		Seed: *seed, Vehicles: *vehicles, HighwayLength: *length,
		SpeedMean: *speed, SpeedStd: *speedStd, Duration: *duration,
		Flows: *flows, FlowPackets: *packets,
		RSUs: *rsus, Buses: *buses, Shadowing: *shadowing, Range: *rng,
		TicketBudget: *tickets, Estimator: *estimator, Faults: *faults,
		Scenario: *scen, TracePath: *trace,
		ArrivalRate: *arrival, MeanLifetime: *lifetime,
	}
	if *city {
		opts.Kind = relroute.CityKind
	}
	sc, err := relroute.BuildScenario(*proto, opts)
	if err != nil {
		return err
	}

	// First Ctrl-C interrupts the engine at the next event boundary and the
	// run unwinds cleanly. A second Ctrl-C hard-exits.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "vanetsim: interrupt — stopping at the next event boundary (interrupt again to hard-exit)")
		sc.World.Engine().Interrupt()
		<-sigs
		os.Exit(130)
	}()

	var sum relroute.Summary
	if *ckptPath != "" {
		var rec *relroute.Checkpoint
		if sum, rec, err = relroute.RecordRun(sc); err == nil {
			err = relroute.WriteCheckpoint(*ckptPath, rec)
		}
	} else {
		sum, err = sc.Run()
	}
	if err != nil {
		return err
	}
	fmt.Printf("protocol   %s\n", sum.Protocol)
	fmt.Printf("scenario   %s\n", sum.Scenario)
	fmt.Printf("sent       %d\n", sum.DataSent)
	fmt.Printf("delivered  %d\n", sum.DataDelivered)
	fmt.Printf("PDR        %.3f\n", sum.PDR)
	fmt.Printf("delay      mean %.4fs  p95 %.4fs\n", sum.MeanDelay, sum.P95Delay)
	fmt.Printf("hops       %.2f\n", sum.MeanHops)
	fmt.Printf("overhead   %.1f control tx per delivered packet\n", sum.Overhead)
	fmt.Printf("collisions %.2f%% of receptions\n", 100*sum.CollisionRate)
	fmt.Printf("routes     %d discoveries, %d breaks, %d repairs\n",
		sum.Discoveries, sum.Breaks, sum.Repairs)
	if sum.Joins > 0 || sum.Leaves > 0 {
		fmt.Printf("membership %d joined, %d left mid-run\n", sum.Joins, sum.Leaves)
	}
	if sum.PathLifetime > 0 {
		fmt.Printf("path life  %.1fs predicted mean\n", sum.PathLifetime)
	}
	if *faults != "" {
		fmt.Printf("faults     %s: %d crashed, %d recovered\n", *faults, sum.Crashes, sum.Recoveries)
		fmt.Printf("fault PDR  %.3f (%d/%d in-window)\n", sum.FaultPDR, sum.FaultDelivered, sum.FaultSent)
		if sum.TimeToReroute > 0 {
			fmt.Printf("reroute    %.3fs mean crash-to-delivery\n", sum.TimeToReroute)
		}
		if sum.RecoveryLatency > 0 {
			fmt.Printf("recovery   %.3fs mean rejoin-to-heard\n", sum.RecoveryLatency)
		}
	}
	return nil
}

// verifyRecord rebuilds the run recorded at path and checks it against the
// record: every trail point, then the end state.
func verifyRecord(path string) error {
	rec, err := relroute.ReadCheckpoint(path)
	if err != nil {
		return err
	}
	if _, err := relroute.RestoreCheckpoint(rec); err != nil {
		return err
	}
	fmt.Printf("verified   %s/%s: %d trail points and the state at t=%.2fs (%d events) match %s\n",
		rec.Protocol, rec.Name, len(rec.Trail), rec.T, rec.Events, path)
	return nil
}
