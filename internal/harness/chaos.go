package harness

import (
	"github.com/vanetlab/relroute/internal/runner"
	"github.com/vanetlab/relroute/internal/scenario"
)

// chaosGrid declares the fault-profile × protocol grid. The V2V
// protocols face the mobile failure modes on a closed highway; DRR — the
// only infrastructure protocol — faces the two infrastructure-death
// profiles with three RSUs to lose.
func chaosGrid(cfg Config) []runner.Run {
	duration := 60.0
	vehicles := 40
	packets := 20
	protos := []string{"Greedy", "AODV", "TBP-SS"}
	if cfg.Quick {
		duration = 30
		vehicles = 24
		packets = 12
		protos = []string{"Greedy", "TBP-SS"}
	}
	base := scenario.Options{
		Seed: cfg.seed(), Vehicles: vehicles, HighwayLength: 2500,
		SpeedMean: 28, Duration: duration, Flows: 4, FlowPackets: packets,
		// spread each flow across the run so packets land inside and
		// outside the fault windows — FaultPDR needs both populations
		FlowInterval: (duration - 10) / float64(packets),
	}
	var runs []runner.Run
	for _, profile := range []string{"rolling-crashes", "jammed-corridor", "partition"} {
		for _, proto := range protos {
			opts := base
			opts.Faults = profile
			runs = append(runs, runner.Run{
				Label: profile + "/" + proto, Protocol: proto, Opts: opts,
			})
		}
	}
	for _, profile := range []string{"rsu-blackout", "energy-depletion"} {
		opts := base
		opts.Faults = profile
		opts.RSUs = 3
		runs = append(runs, runner.Run{
			Label: profile + "/DRR", Protocol: "DRR", Opts: opts,
		})
	}
	return runs
}

// Chaos (E-F1) measures graceful degradation: every fault profile in the
// chaos grid — rolling vehicle crashes, a jammed corridor, a hard
// partition for the V2V protocols; RSU blackout and energy depletion for
// the infrastructure protocol — against the degradation metrics of the
// fault plane.
func Chaos(cfg Config) (*Table, error) {
	var camp runner.Campaign
	camp.Add(chaosGrid(cfg)...)
	sums, err := cfg.submit(camp)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "chaos",
		Title: "graceful degradation under injected faults, per profile and protocol",
		Columns: []Column{{"profile", Text}, {"protocol", Text}, {"PDR", Pct}, {"faultPDR", Pct},
			{"crash", Int}, {"recov", Int}, {"reroute(s)", Float}, {"recovery(s)", Float}, {"ctl-spike", Float}},
	}
	for i, sum := range sums {
		run := camp.Runs[i]
		t.AddRow(run.Opts.Faults, run.Protocol, sum.PDR, sum.FaultPDR, sum.Crashes, sum.Recoveries,
			sum.TimeToReroute, sum.RecoveryLatency, sum.FaultCtlSpike)
	}
	t.Notes = append(t.Notes,
		"faultPDR counts only packets originated inside fault windows; whole-run PDR dilutes the damage with healthy-period traffic",
		"reroute(s) is crash → next successful delivery; recovery(s) is node recovery → first beacon heard; ctl-spike > 1 means faults made the control plane chattier",
		"schedules are seeded (scenario seed + 13) and fire on the event queue — same seed, same faults, byte-identical tables at any Workers/Shards",
	)
	return t, nil
}
