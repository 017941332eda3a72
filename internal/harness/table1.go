package harness

import (
	"fmt"

	"github.com/vanetlab/relroute/internal/runner"
	"github.com/vanetlab/relroute/internal/scenario"
)

// regime is one traffic condition of the Table I comparison.
type regime struct {
	name string
	opts scenario.Options
}

// regimes returns the three traffic conditions Table I's pros/cons hinge
// on: sparse rural traffic, normal highway flow, and congested urban
// traffic (dense, slow, jammed).
func regimes(cfg Config) []regime {
	duration := 60.0
	packets := 20
	if cfg.Quick {
		duration = 35
		packets = 12
	}
	return []regime{
		{
			name: "sparse",
			opts: scenario.Options{
				Seed: cfg.seed(), Vehicles: 12, HighwayLength: 3000,
				SpeedMean: 33, Duration: duration,
				Flows: 4, FlowPackets: packets,
			},
		},
		{
			name: "normal",
			opts: scenario.Options{
				Seed: cfg.seed(), Vehicles: 60, HighwayLength: 2000,
				SpeedMean: 30, Duration: duration,
				Flows: 4, FlowPackets: packets,
			},
		},
		{
			name: "congested",
			opts: scenario.Options{
				Seed: cfg.seed(), Vehicles: 140, HighwayLength: 1500,
				SpeedMean: 8, SpeedStd: 3, Duration: duration,
				Flows: 4, FlowPackets: packets,
			},
		},
	}
}

// representatives maps each Table I row to the protocol run for it.
func representatives() []struct{ category, protocol string } {
	return []struct{ category, protocol string }{
		{"Connectivity", "Flooding"},
		{"Mobility", "PBR"},
		{"Infrastructure", "DRR"},
		{"Location", "Greedy"},
		{"Probability", "TBP-SS"},
	}
}

// Table1Summary regenerates Table I: one representative protocol per
// category, measured across the three traffic regimes. The paper's
// qualitative pros/cons become measured PDR, delay, overhead, and
// collision columns.
func Table1Summary(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "table1",
		Title: "measured summary of the five routing categories",
		Columns: []Column{
			{"category", Text}, {"protocol", Text}, {"regime", Text}, {"PDR", Pct}, {"delay(s)", Float},
			{"overhead", Float}, {"collisions", Pct}, {"breaks", Int},
		},
	}
	// declare the full representative × regime grid as labelled runs
	type cell struct{ category, regime string }
	var cells []cell
	var camp runner.Campaign
	rgs := regimes(cfg)
	for _, rep := range representatives() {
		for _, rg := range rgs {
			opts := rg.opts
			if rep.protocol == "DRR" {
				opts.RSUs = 3
			}
			cells = append(cells, cell{rep.category, rg.name})
			camp.Add(runner.Run{Protocol: rep.protocol, Opts: opts})
		}
	}
	results, err := Execute(cfg, camp)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("table1 %s/%s: %w", camp.Runs[i].Protocol, cells[i].regime, res.Err)
		}
		sum := res.Summary
		t.AddRow(cells[i].category, camp.Runs[i].Protocol, cells[i].regime,
			sum.PDR, sum.MeanDelay, sum.Overhead, sum.CollisionRate, sum.Breaks)
	}
	t.Notes = append(t.Notes,
		"Table I row 1 (connectivity): simple but overhead/broadcast storm — see collisions grow with density",
		"Table I row 2 (mobility): reliable in normal traffic, degraded in sparse/congested",
		"Table I row 3 (infrastructure): reliable+accurate, needs RSUs (expensive, urban-only)",
		"Table I row 4 (location): simple+direct but not optimal (PDR below mobility/probability in normal traffic)",
		"Table I row 5 (probability): efficient (low overhead per delivery) but tuned to a traffic model",
	)
	return t, nil
}
