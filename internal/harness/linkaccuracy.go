package harness

import (
	"fmt"

	"github.com/vanetlab/relroute/internal/linkstate"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/runner"
	"github.com/vanetlab/relroute/internal/scenario"
)

// LinkAccCell is one (estimator, scenario) cell of the link-accuracy
// grid: how well the estimator's residual-lifetime predictions matched
// the link breaks the world actually observed.
type LinkAccCell struct {
	Estimator string  `json:"estimator"`
	Scenario  string  `json:"scenario"`
	Samples   int     `json:"samples"`
	Censored  int     `json:"censored"`
	MAE       float64 `json:"mae_s"`
	Bias      float64 `json:"bias_s"`
	PDR       float64 `json:"pdr"`
	// Calibration carries the per-bucket mean predicted vs observed
	// lifetimes, bucketed by predicted lifetime (metrics.LinkBucketEdges).
	Calibration [len(metrics.LinkBucketEdges) + 1]metrics.CalBucket `json:"calibration"`
}

// LinkAccuracyHorizon caps audited predictions and observations, seconds.
const LinkAccuracyHorizon = 30.0

// linkAccScenario is one evaluation habitat of the accuracy grid.
type linkAccScenario struct {
	name string
	opts scenario.Options
}

// linkAccScenarios returns the three habitats the estimators are measured
// in: a free-flow highway (kinematics honest, Eqn 4 at its best), the
// open-world city-rush preset (turning at junctions and mid-run churn
// violate the constant-velocity assumption), and trace replay (recorded
// trajectories with per-track active windows).
func linkAccScenarios(cfg Config) ([]linkAccScenario, error) {
	duration := 40.0
	vehicles := 40
	if cfg.Quick {
		duration = 25
		vehicles = 24
	}
	tracks, err := recordHighwayTrace(cfg.seed()+1, vehicles/2, duration+10)
	if err != nil {
		return nil, err
	}
	return []linkAccScenario{
		{
			name: "highway",
			opts: scenario.Options{
				Seed: cfg.seed(), Vehicles: vehicles, HighwayLength: 2000,
				Duration: duration, Flows: 4, FlowPackets: 12,
			},
		},
		{
			name: "city-rush",
			opts: scenario.Options{
				Seed: cfg.seed(), Scenario: "city-rush", Vehicles: vehicles,
				Duration: duration, Flows: 4, FlowPackets: 12,
			},
		},
		{
			name: "trace",
			opts: scenario.Options{
				Seed: cfg.seed(), Tracks: tracks,
				Duration: duration, Flows: 4, FlowPackets: 12,
			},
		},
	}, nil
}

// LinkAccuracyData runs the estimator × scenario grid and returns one
// cell per combination. Every run carries the same Greedy workload —
// Greedy never consumes lifetime or receipt predictions, so routing
// behaviour (and with it the beacon/feedback evidence stream) is
// identical across estimators and the cells differ only in what the
// estimators predicted from it.
func LinkAccuracyData(cfg Config) ([]LinkAccCell, error) {
	scens, err := linkAccScenarios(cfg)
	if err != nil {
		return nil, err
	}
	estimators := linkstate.Names()
	var camp runner.Campaign
	var cells []LinkAccCell
	for _, est := range estimators {
		for _, sc := range scens {
			opts := sc.opts
			opts.Estimator = est
			cells = append(cells, LinkAccCell{Estimator: est, Scenario: sc.name})
			camp.Add(runner.Run{
				Protocol: "Greedy",
				Opts:     opts,
				Setup: func(s *scenario.Scenario) {
					s.World.EnableLinkAudit(LinkAccuracyHorizon)
				},
			})
		}
	}
	results, err := Execute(cfg, camp)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("link-accuracy %s/%s: %w", cells[i].Estimator, cells[i].Scenario, res.Err)
		}
		sum := res.Summary
		cells[i].Samples = sum.LinkSamples
		cells[i].Censored = sum.LinkCensored
		cells[i].MAE = sum.LinkMAE
		cells[i].Bias = sum.LinkBias
		cells[i].PDR = sum.PDR
		cells[i].Calibration = sum.LinkCalibration
	}
	return cells, nil
}

// LinkAccuracyTable renders accuracy cells as the experiment table — the
// single renderer shared by the link-accuracy experiment and vanetbench's
// linkacc subcommand, so columns and caveats cannot diverge.
func LinkAccuracyTable(cells []LinkAccCell) *Table {
	t := &Table{
		ID:      "link-accuracy",
		Title:   "predicted vs observed link lifetime, per estimator and scenario",
		Columns: []string{"estimator", "scenario", "samples", "censored", "MAE(s)", "bias(s)", "PDR"},
	}
	for _, c := range cells {
		t.AddRow(c.Estimator, c.Scenario, fmt.Sprint(c.Samples), fmt.Sprint(c.Censored),
			fmtF(c.MAE), fmt.Sprintf("%+.3f", c.Bias), fmtPct(c.PDR))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("predictions and observations capped at the %g s audit horizon; bias > 0 means the estimator is optimistic", LinkAccuracyHorizon),
		"composite (the default plane configuration) predicts lifetime kinematically, so its lifetime error matches `kinematic`; they differ in receipt probability",
		calibrationNote(cells),
	)
	return t
}

// LinkAccuracy (link-accuracy) measures the reliability plane's central
// claim: that residual link lifetimes can be predicted. Every estimator in
// the registry runs the same scenarios while the world records ground-
// truth link breaks from geometry; the table reports the prediction MAE,
// the signed bias (positive = optimistic), and sample counts per cell.
func LinkAccuracy(cfg Config) (*Table, error) {
	cells, err := LinkAccuracyData(cfg)
	if err != nil {
		return nil, err
	}
	return LinkAccuracyTable(cells), nil
}

// calibrationNote condenses the kinematic estimator's highway calibration
// buckets into one line: mean predicted → mean observed per bucket.
func calibrationNote(cells []LinkAccCell) string {
	for _, c := range cells {
		if c.Estimator != "kinematic" || c.Scenario != "highway" {
			continue
		}
		s := "kinematic/highway calibration (pred→obs s): "
		for i, b := range c.Calibration {
			if i > 0 {
				s += ", "
			}
			if b.N == 0 {
				s += "–"
				continue
			}
			s += fmt.Sprintf("%.1f→%.1f (n=%d)", b.MeanPred(), b.MeanObs(), b.N)
		}
		return s
	}
	return "calibration: no kinematic/highway cell"
}
