package harness

import (
	"fmt"

	"github.com/vanetlab/relroute/internal/linkstate"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/runner"
	"github.com/vanetlab/relroute/internal/scenario"
)

// linkAuditHorizon caps audited predictions and observations, seconds.
const linkAuditHorizon = 30.0

// linkAccScenario is one evaluation habitat of the accuracy grid.
type linkAccScenario struct {
	name string
	opts scenario.Options
}

// linkAccScenarios returns the three habitats the estimators are measured
// in: a free-flow highway (kinematics honest, Eqn 4 at its best), the
// open-world city-rush preset (turning at junctions and mid-run churn
// violate the constant-velocity assumption), and trace replay (recorded
// trajectories with per-track active windows). city-rush keeps the full
// run's 40 vehicles in quick mode too: with 24 its 250 m grid partitions
// and the quick rows deliver nothing, so no receipt evidence reaches the
// estimators.
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
				Seed: cfg.seed(), Scenario: "city-rush", Vehicles: 40,
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

// LinkAccuracy (link-accuracy) measures the reliability plane's central
// claim: that residual link lifetimes can be predicted. Every estimator in
// the registry runs the same scenarios while the world records ground-
// truth link breaks from geometry; the table reports the prediction MAE,
// the signed bias (positive = optimistic), and sample counts per cell.
// Every run carries the same Greedy workload — Greedy never consumes
// lifetime or receipt predictions, so routing behaviour (and with it the
// beacon/feedback evidence stream) is identical across estimators and the
// cells differ only in what the estimators predicted from it.
func LinkAccuracy(cfg Config) (*Table, error) {
	scens, err := linkAccScenarios(cfg)
	if err != nil {
		return nil, err
	}
	var camp runner.Campaign
	for _, est := range linkstate.Names() {
		for _, sc := range scens {
			opts := sc.opts
			opts.Estimator = est
			camp.Add(runner.Run{
				Protocol: "Greedy",
				Opts:     opts,
				Setup: func(s *scenario.Scenario) {
					s.World.EnableLinkAudit(linkAuditHorizon)
				},
			})
		}
	}
	results, err := Execute(cfg, camp)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "link-accuracy",
		Title: "predicted vs observed link lifetime, per estimator and scenario",
		Columns: []Column{{"estimator", Text}, {"scenario", Text}, {"samples", Int}, {"censored", Int},
			{"MAE(s)", Float}, {"bias(s)", Signed}, {"PDR", Pct}},
	}
	calibration := "calibration: no kinematic/highway cell"
	for i, res := range results {
		est, sc := camp.Runs[i].Opts.Estimator, scens[i%len(scens)].name
		if res.Err != nil {
			return nil, fmt.Errorf("link-accuracy %s/%s: %w", est, sc, res.Err)
		}
		sum := res.Summary
		t.AddRow(est, sc, sum.LinkSamples, sum.LinkCensored, sum.LinkMAE, sum.LinkBias, sum.PDR)
		if est == "kinematic" && sc == "highway" {
			calibration = calibrationNote(sum.LinkCalibration)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("predictions and observations capped at the %g s audit horizon; bias > 0 means the estimator is optimistic", linkAuditHorizon),
		"composite (the default plane configuration) predicts lifetime kinematically, so its lifetime error matches `kinematic`; they differ in receipt probability",
		calibration,
	)
	return t, nil
}

// calibrationNote condenses the kinematic estimator's highway calibration
// buckets into one line: mean predicted → mean observed per bucket.
func calibrationNote(buckets [len(metrics.LinkBucketEdges) + 1]metrics.CalBucket) string {
	s := "kinematic/highway calibration (pred→obs s): "
	for i, b := range buckets {
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
