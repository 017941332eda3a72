package harness

import (
	"fmt"

	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/prng"
	"github.com/vanetlab/relroute/internal/runner"
	"github.com/vanetlab/relroute/internal/scenario"
)

// ScenarioChurn (churn) measures how protocol rankings shift when the
// closed-world assumption is dropped: the same highway and workload, once
// with the population fixed at t=0 and once as an open world with Poisson
// arrivals and lifetime-bounded departures, where nodes join and leave the
// network mid-run. Mobility-prediction and stability-probing protocols
// lose their "the neighbor set only drifts" premise exactly here — the
// scenario-diversity axis trace-driven evaluations (TDMP, arXiv:2009.01302)
// stress.
func ScenarioChurn(cfg Config) (*Table, error) {
	duration := 40.0
	vehicles := 50
	if cfg.Quick {
		duration = 25
		vehicles = 30
	}
	protos := []string{"Greedy", "AODV", "TBP-SS"}
	closed := scenario.Options{
		Seed: cfg.seed(), Vehicles: vehicles, HighwayLength: 2000,
		Duration: duration, Flows: 4, FlowPackets: 12,
	}
	open := closed
	open.ArrivalRate = float64(vehicles) / duration // replace the population ~once
	open.MeanLifetime = duration / 2
	grid := []scenario.Options{closed, open}

	sums, err := cfg.submit(runner.New(runner.Spec{Protocols: protos, Grid: grid}))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "churn",
		Title:   "open-world vehicle churn vs the closed-world assumption",
		Columns: []string{"protocol", "world", "PDR", "delay(s)", "breaks", "joins", "leaves"},
	}
	worlds := []string{"closed", "open (churn)"}
	for i, sum := range sums {
		t.AddRow(
			protos[i/len(grid)], worlds[i%len(grid)],
			fmtPct(sum.PDR), fmtF(sum.MeanDelay), fmt.Sprint(sum.Breaks),
			fmt.Sprint(sum.Joins), fmt.Sprint(sum.Leaves),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("open world: Poisson arrivals at %.2f veh/s, exponential lifetimes of mean %.0f s — every arrival joins and every expiry leaves the network mid-run", open.ArrivalRate, open.MeanLifetime))
	return t, nil
}

// ScenarioTraceReplay (trace-replay) closes the SUMO loop end to end: a
// trace is recorded from the synthetic mobility stack (the stand-in for a
// SUMO FCD export in offline environments), then replayed through the
// playback mobility model — per-track active windows, open-world
// membership — under every protocol of the grid. The same FCD file
// format round-trips through cmd/tracegen and vanetsim -trace.
func ScenarioTraceReplay(cfg Config) (*Table, error) {
	duration := 30.0
	vehicles := 40
	if cfg.Quick {
		duration = 20
		vehicles = 24
	}
	tracks, err := recordHighwayTrace(cfg.seed(), vehicles, duration+10)
	if err != nil {
		return nil, err
	}
	protos := []string{"Greedy", "AODV", "TBP-SS"}
	sums, err := cfg.submit(runner.New(runner.Spec{
		Protocols: protos,
		Grid: []scenario.Options{{
			Seed: cfg.seed(), Duration: duration,
			Flows: 4, FlowPackets: 12, Tracks: tracks,
		}},
	}))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "trace-replay",
		Title:   "end-to-end FCD trace replay (recorded mobility, played back)",
		Columns: []string{"protocol", "PDR", "delay(s)", "hops", "overhead"},
	}
	for i, sum := range sums {
		t.AddRow(protos[i], fmtPct(sum.PDR), fmtF(sum.MeanDelay),
			fmtF(sum.MeanHops), fmtF(sum.Overhead))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d tracks recorded at 0.5 s sampling from the IDM highway model and replayed via mobility.PlaybackModel with per-track active windows", len(tracks)))
	return t, nil
}

// recordHighwayTrace generates a deterministic highway trace: the
// in-process equivalent of cmd/tracegen, via the shared pipeline.
func recordHighwayTrace(seed int64, vehicles int, duration float64) ([]mobility.Track, error) {
	rng, _ := prng.Rand(seed)
	model, err := mobility.NewHighwayModel(rng, vehicles, 2000, 28, 5)
	if err != nil {
		return nil, err
	}
	return mobility.Record(model, 0.5, duration), nil
}
