package harness

import (
	"github.com/vanetlab/relroute/internal/runner"
	"github.com/vanetlab/relroute/internal/scenario"
)

// AblationBroadcastStorm (E-A1) measures the broadcast storm: flooding's
// MAC transmissions, duplicate ratio, and collision rate as density grows
// (Sec. III-B: "the performance of network will dramatically drop when the
// population of nodes increases").
func AblationBroadcastStorm(cfg Config) (*Table, error) {
	densities := []int{20, 40, 80, 140}
	duration := 30.0
	if cfg.Quick {
		densities = []int{20, 60}
		duration = 20
	}
	t := &Table{
		ID:    "abl-storm",
		Title: "broadcast storm: flooding vs node count",
		Columns: []Column{{"vehicles", Int}, {"PDR", Pct}, {"MAC transmits", Int}, {"tx per delivered", Float},
			{"dup ratio", Float}, {"collision rate", Pct}},
	}
	grid := make([]scenario.Options, 0, len(densities))
	for _, v := range densities {
		grid = append(grid, scenario.Options{
			Seed: cfg.seed(), Vehicles: v, HighwayLength: 1500,
			Duration: duration, Flows: 3, FlowPackets: 10,
		})
	}
	sums, err := cfg.submit(runner.New(runner.Spec{Protocols: []string{"Flooding"}, Grid: grid}))
	if err != nil {
		return nil, err
	}
	for i, sum := range sums {
		perDelivered := float64(sum.MACTransmits)
		if sum.DataDelivered > 0 {
			perDelivered /= float64(sum.DataDelivered)
		}
		t.AddRow(densities[i], sum.PDR, sum.MACTransmits, perDelivered, sum.DupRatio, sum.CollisionRate)
	}
	t.Notes = append(t.Notes, "transmissions per delivered packet grow with density — the broadcast storm [5]")
	return t, nil
}

// AblationMobilityRegimes (E-A2) shows mobility-based prediction works in
// normal flow but degrades in sparse and congested traffic (Table I row 2:
// "not working in sparse/congested traffic").
func AblationMobilityRegimes(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "abl-regimes",
		Title: "PBR (mobility prediction) across traffic regimes",
		Columns: []Column{{"regime", Text}, {"PDR", Pct}, {"delay(s)", Float}, {"discoveries", Int},
			{"breaks", Int}, {"path lifetime(s)", Float}},
	}
	rgs := regimes(cfg)
	grid := make([]scenario.Options, 0, len(rgs))
	for _, rg := range rgs {
		grid = append(grid, rg.opts)
	}
	sums, err := cfg.submit(runner.New(runner.Spec{Protocols: []string{"PBR"}, Grid: grid}))
	if err != nil {
		return nil, err
	}
	for i, sum := range sums {
		t.AddRow(rgs[i].name, sum.PDR, sum.MeanDelay, sum.Discoveries, sum.Breaks, sum.PathLifetime)
	}
	t.Notes = append(t.Notes,
		"sparse: paths rarely exist so prediction has nothing to protect; congested: queueing and collisions dominate — prediction accuracy stops mattering")
	return t, nil
}

// AblationPathLifetime (E-A3) compares AODV (lifetime-blind) against PBR
// and TBP-SS (lifetime-aware) as speed grows: the survey's thesis that
// "use of knowledge of the stability of various potential links ... would
// naturally help avoid unstable links".
func AblationPathLifetime(cfg Config) (*Table, error) {
	speeds := []float64{10, 20, 30, 40}
	duration := 50.0
	if cfg.Quick {
		speeds = []float64{15, 35}
		duration = 30
	}
	t := &Table{
		ID:    "abl-lifetime",
		Title: "lifetime-aware routing vs speed",
		Columns: []Column{{"protocol", Text}, {"speed(m/s)", Float}, {"PDR", Pct}, {"breaks", Int},
			{"discoveries", Int}, {"repairs", Int}},
	}
	protos := []string{"AODV", "PBR", "TBP-SS"}
	grid := make([]scenario.Options, 0, len(speeds))
	for _, sp := range speeds {
		grid = append(grid, scenario.Options{
			Seed: cfg.seed(), Vehicles: 60, HighwayLength: 2000,
			SpeedMean: sp, SpeedStd: sp / 4, Duration: duration,
			Flows: 4, FlowPackets: 15,
		})
	}
	sums, err := cfg.submit(runner.New(runner.Spec{Protocols: protos, Grid: grid}))
	if err != nil {
		return nil, err
	}
	for i, sum := range sums {
		t.AddRow(protos[i/len(speeds)], speeds[i%len(speeds)], sum.PDR, sum.Breaks, sum.Discoveries, sum.Repairs)
	}
	t.Notes = append(t.Notes,
		"as speed rises, AODV's breaks climb while the lifetime-aware protocols trade extra discoveries/repairs for sustained PDR")
	return t, nil
}

// AblationProbVsGeo (E-A4) contrasts probability-based TBP-SS with
// geographic greedy under homogeneous vs heterogeneous speeds (Table I
// rows 4/5: location is "not optimal"; probability is "efficient" but
// model-bound).
func AblationProbVsGeo(cfg Config) (*Table, error) {
	duration := 50.0
	if cfg.Quick {
		duration = 30
	}
	type cond struct {
		name     string
		speedStd float64
	}
	conds := []cond{{"homogeneous", 1}, {"heterogeneous", 9}}
	t := &Table{
		ID:    "abl-probvsgeo",
		Title: "probability vs geographic routing under speed heterogeneity",
		Columns: []Column{{"protocol", Text}, {"traffic", Text}, {"PDR", Pct}, {"delay(s)", Float},
			{"overhead", Float}, {"breaks", Int}},
	}
	protos := []string{"Greedy", "TBP-SS"}
	grid := make([]scenario.Options, 0, len(conds))
	for _, c := range conds {
		grid = append(grid, scenario.Options{
			Seed: cfg.seed(), Vehicles: 70, HighwayLength: 2000,
			SpeedMean: 28, SpeedStd: c.speedStd, Duration: duration,
			Flows: 4, FlowPackets: 15,
		})
	}
	sums, err := cfg.submit(runner.New(runner.Spec{Protocols: protos, Grid: grid}))
	if err != nil {
		return nil, err
	}
	for i, sum := range sums {
		t.AddRow(protos[i/len(conds)], conds[i%len(conds)].name, sum.PDR, sum.MeanDelay, sum.Overhead, sum.Breaks)
	}
	t.Notes = append(t.Notes,
		"with homogeneous speeds, geography is near-optimal; heterogeneity makes greedy's shortest links churn while stability-probing holds its paths")
	return t, nil
}

// AblationTickets (E-A5) sweeps the TBP-SS ticket budget L: probe overhead
// vs delivery — the protocol's core knob ("selectively probes, rather than
// brute-force floods").
func AblationTickets(cfg Config) (*Table, error) {
	budgets := []int{1, 2, 3, 5, 8}
	duration := 50.0
	if cfg.Quick {
		budgets = []int{1, 3, 6}
		duration = 30
	}
	t := &Table{
		ID:      "abl-tickets",
		Title:   "TBP-SS ticket budget trade-off",
		Columns: []Column{{"tickets", Int}, {"PDR", Pct}, {"probes sent", Int}, {"overhead", Float}, {"path lifetime(s)", Float}},
	}
	grid := make([]scenario.Options, 0, len(budgets))
	for _, l := range budgets {
		grid = append(grid, scenario.Options{
			Seed: cfg.seed(), Vehicles: 70, HighwayLength: 2000,
			Duration: duration, Flows: 4, FlowPackets: 15,
			TicketBudget: l,
		})
	}
	sums, err := cfg.submit(runner.New(runner.Spec{Protocols: []string{"TBP-SS"}, Grid: grid}))
	if err != nil {
		return nil, err
	}
	for i, sum := range sums {
		t.AddRow(budgets[i], sum.PDR, sum.ControlTotal, sum.Overhead, sum.PathLifetime)
	}
	t.Notes = append(t.Notes,
		"a handful of tickets buys most of the reachability of flooding-style discovery at a fraction of the probes; beyond L≈5 returns diminish")
	return t, nil
}
