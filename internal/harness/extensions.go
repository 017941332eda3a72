package harness

import (
	"fmt"

	"github.com/vanetlab/relroute/internal/runner"
	"github.com/vanetlab/relroute/internal/scenario"
)

// AblationHybrid (E-A6) evaluates the survey conclusion's proposal —
// combining probability-model routing with mobility-based signals — under
// traffic whose motion changes (high speed heterogeneity plus a dense
// opposite-direction stream): exactly the regime where "the latter can
// strengthen the former when the traffic motions change".
func AblationHybrid(cfg Config) (*Table, error) {
	duration := 50.0
	if cfg.Quick {
		duration = 30
	}
	t := &Table{
		ID:    "abl-hybrid",
		Title: "hybrid probability+mobility routing under changing motion",
		Columns: []Column{{"protocol", Text}, {"PDR", Pct}, {"delay(s)", Float}, {"overhead", Float},
			{"breaks", Int}, {"repairs", Int}},
	}
	protos := []string{"PBR", "TBP-SS", "Hybrid"}
	sums, err := cfg.submit(runner.New(runner.Spec{
		Protocols: protos,
		Grid: []scenario.Options{{
			Seed: cfg.seed(), Vehicles: 70, HighwayLength: 2000,
			SpeedMean: 28, SpeedStd: 10, // strongly heterogeneous motion
			Duration: duration, Flows: 4, FlowPackets: 15,
		}},
	}))
	if err != nil {
		return nil, err
	}
	for i, sum := range sums {
		t.AddRow(protos[i], sum.PDR, sum.MeanDelay, sum.Overhead, sum.Breaks, sum.Repairs)
	}
	t.Notes = append(t.Notes,
		"the hybrid gates the probability metric with the Fig. 4 direction class and the deterministic Eqn (4) prediction — the combination Sec. VIII proposes")
	return t, nil
}

// AblationDisaster (E-A7) measures Sec. V-A's warning about infrastructure
// routing: "in disasters like hurricane and earthquake where traffic
// information is most needed, the information may however not be delivered
// because the infrastructure is damaged." Half-way through a sparse-traffic
// run every RSU is disabled; DRR's delivery collapses to its V2V fallback,
// while the bus-ferry and pure-V2V baselines are unaffected. The disaster
// is the fault plane's rsu-blackout profile (Options.Faults), so crashed
// RSUs also drop their queued frames and age out of the location service —
// no post-build scheduling hook.
func AblationDisaster(cfg Config) (*Table, error) {
	duration := 80.0
	packets := 30
	if cfg.Quick {
		duration = 50
		packets = 18
	}
	t := &Table{
		ID:      "abl-disaster",
		Title:   "infrastructure failure mid-run (sparse traffic)",
		Columns: []Column{{"configuration", Text}, {"PDR", Pct}, {"delivered/sent", Text}},
	}
	base := scenario.Options{
		Seed: cfg.seed(), Vehicles: 12, HighwayLength: 3000,
		SpeedMean: 30, Duration: duration, Flows: 4, FlowPackets: packets,
		// spread the flow over the whole run so half the packets are sent
		// after the disaster strikes at t/2
		FlowInterval: (duration - 15) / float64(packets),
		RSUs:         3,
	}
	disasterOpts := base
	disasterOpts.Faults = "rsu-blackout"
	busOpts := base
	busOpts.RSUs = 0
	busOpts.Buses = 2
	v2vOpts := base
	v2vOpts.RSUs = 0
	var camp runner.Campaign
	camp.Add(
		runner.Run{Label: "DRR, RSUs healthy", Protocol: "DRR", Opts: base},
		runner.Run{Label: "DRR, RSUs destroyed at t/2", Protocol: "DRR", Opts: disasterOpts},
		runner.Run{Label: "Bus ferries (no RSUs)", Protocol: "Bus", Opts: busOpts},
		runner.Run{Label: "Greedy V2V (no RSUs)", Protocol: "Greedy", Opts: v2vOpts},
	)
	sums, err := cfg.submit(camp)
	if err != nil {
		return nil, err
	}
	for i, sum := range sums {
		t.AddRow(camp.Runs[i].Label, sum.PDR, fmt.Sprintf("%d/%d", sum.DataDelivered, sum.DataSent))
	}
	t.Notes = append(t.Notes,
		"the damaged-infrastructure PDR must land between healthy DRR and pure V2V — Table I row 3's availability caveat, measured")
	return t, nil
}
