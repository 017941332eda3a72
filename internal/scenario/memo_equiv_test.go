package scenario

import (
	"math"
	"testing"

	"github.com/vanetlab/relroute/internal/core"
	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/netstack"
)

// TestTicketMemoChangesNothing runs the three ticket-probing protocols as
// shipped — scoring through the router's stability memo and ranking by its
// bounds — and with a WithScorer function that ignores the metric the
// router hands it and computes the link's score from scratch
// (core.LinkStability is the integral linkStateStability runs, over the
// same positions, velocities and range; for Hybrid the blend is
// recomputed around it as hybrid.Score computed it before the router
// passed the metric in). Every summary field and the world digest must
// agree.
func TestTicketMemoChangesNothing(t *testing.T) {
	worlds := map[string]Options{
		"highway":   {Seed: 3},
		"city-rush": {Seed: 3, Scenario: "city-rush", Vehicles: 60, Duration: 40},
	}
	stability := func(m core.Metric, api *netstack.API, nb netstack.Neighbor) float64 {
		return core.LinkStability(m, core.StabilityParams{}, api.Pos(), api.Vel(), nb.Pos, nb.Vel, api.RangeEstimate())
	}
	scorers := map[string]struct {
		metric core.Metric
		score  func(api *netstack.API, nb netstack.Neighbor) float64
	}{
		"TBP-SS": {core.MetricMeanDuration, func(api *netstack.API, nb netstack.Neighbor) float64 {
			return stability(core.MetricMeanDuration, api, nb)
		}},
		"Yan-TBP": {core.MetricExpectedDuration, func(api *netstack.API, nb netstack.Neighbor) float64 {
			return stability(core.MetricExpectedDuration, api, nb)
		}},
		"Hybrid": {core.MetricMeanDuration, func(api *netstack.API, nb netstack.Neighbor) float64 {
			prob, det := stability(core.MetricMeanDuration, api, nb), stability(core.MetricDeterministic, api, nb)
			score := 0.5*prob + 0.5*det
			if link.Classify(api.Pos(), api.Vel(), nb.Pos, nb.Vel) == link.OppositeDirection {
				score = math.Min(score, det)
			}
			return score
		}},
	}
	run := func(proto string, opts Options, vehicles netstack.RouterFactory) (metrics.Summary, uint64) {
		t.Helper()
		opts.setDefaults()
		spec, opts, err := specFromOptions(opts)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := buildSpec(proto, spec, opts, vehicles)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return sum, sc.World.Digest()
	}
	for world, opts := range worlds {
		for proto, ref := range scorers {
			t.Run(world+"/"+proto, func(t *testing.T) {
				o := opts
				o.setDefaults()
				unmemoized := core.NewTicketRouter(
					core.WithMetric(ref.metric),
					core.WithTickets(o.TicketBudget),
					core.WithScorer(func(api *netstack.API, nb netstack.Neighbor, _ float64) float64 {
						return ref.score(api, nb)
					}),
				)
				shipped, shippedDigest := run(proto, opts, nil)
				plain, plainDigest := run(proto, opts, unmemoized)
				if shipped.Discoveries == 0 || shipped.DataDelivered == 0 {
					t.Fatalf("nothing probed or delivered: %+v", shipped)
				}
				if shipped != plain {
					t.Errorf("summaries differ:\nmemo    %+v\nno memo %+v", shipped, plain)
				}
				if shippedDigest != plainDigest {
					t.Errorf("world digest %#x with the memo, %#x without", shippedDigest, plainDigest)
				}
			})
		}
	}
}
