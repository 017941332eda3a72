package scenario

import (
	"reflect"
	"testing"

	"github.com/vanetlab/relroute/internal/core"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/netstack"
)

// TestTicketMemoChangesNothing runs the two ticket-probing protocols as
// shipped — scoring through the router's stability memo — and with the
// same metric handed in as a WithScorer function, which the memo never
// sees (core.LinkStability is the integral linkStateStability runs, over
// the same positions, velocities and range). Every summary field and the
// world digest must agree.
func TestTicketMemoChangesNothing(t *testing.T) {
	worlds := map[string]Options{
		"highway":   {Seed: 3},
		"city-rush": {Seed: 3, Scenario: "city-rush", Vehicles: 60, Duration: 40},
	}
	metricsOf := map[string]core.Metric{
		"TBP-SS":  core.MetricMeanDuration,
		"Yan-TBP": core.MetricExpectedDuration,
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
		for proto, metric := range metricsOf {
			t.Run(world+"/"+proto, func(t *testing.T) {
				o := opts
				o.setDefaults()
				unmemoized := core.NewTicketRouter(
					core.WithMetric(metric),
					core.WithTickets(o.TicketBudget),
					core.WithScorer(proto, func(api *netstack.API, nb netstack.Neighbor) float64 {
						return core.LinkStability(metric, core.StabilityParams{},
							api.Pos(), api.Vel(), nb.Pos, nb.Vel, api.RangeEstimate())
					}),
				)
				shipped, shippedDigest := run(proto, opts, nil)
				plain, plainDigest := run(proto, opts, unmemoized)
				if shipped.Discoveries == 0 || shipped.DataDelivered == 0 {
					t.Fatalf("nothing probed or delivered: %+v", shipped)
				}
				if !reflect.DeepEqual(shipped, plain) {
					t.Errorf("summaries differ:\nmemo    %+v\nno memo %+v", shipped, plain)
				}
				if shippedDigest != plainDigest {
					t.Errorf("world digest %#x with the memo, %#x without", shippedDigest, plainDigest)
				}
			})
		}
	}
}
