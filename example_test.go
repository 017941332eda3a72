package relroute_test

import (
	"fmt"
	"log"

	"github.com/vanetlab/relroute"
)

// ExampleRun simulates the paper's TBP-SS protocol on a highway and reports
// delivery. The seed makes the run fully deterministic.
func ExampleRun() {
	sum, err := relroute.Run("TBP-SS", relroute.Options{
		Seed:          7,
		Vehicles:      50,
		HighwayLength: 1500,
		Duration:      30,
		Flows:         2,
		FlowPackets:   10,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delivered %d of %d\n", sum.DataDelivered, sum.DataSent)
	// Output: delivered 20 of 20
}

// ExampleLinkLifetime solves the paper's Eqn (4) for two vehicles on a
// highway: A at the origin doing 30 m/s, B 100 m ahead doing 25 m/s, with
// a 250 m radio range. A catches up, passes, and the link breaks when A is
// 250 m ahead: (250+100)/5 = 70 s.
func ExampleLinkLifetime() {
	lifetime := relroute.LinkLifetime(
		relroute.V(0, 0), relroute.V(30, 0),
		relroute.V(100, 0), relroute.V(25, 0),
		250,
	)
	fmt.Printf("the link lives %.0f s\n", lifetime)
	// Output: the link lives 70 s
}

// ExamplePathLifetime applies the paper's composition rule: a route lives
// only as long as its weakest link.
func ExamplePathLifetime() {
	fmt.Println(relroute.PathLifetime([]float64{42.0, 7.5, 19.3}))
	// Output: 7.5
}

// ExampleRunCampaign fans a protocol × seed grid out across the worker
// pool and folds the per-seed summaries into cross-seed statistics.
// Results come back in submission order, so output is deterministic for
// any worker count.
func ExampleRunCampaign() {
	spec := relroute.BatchSpec{
		Protocols: []string{"Greedy", "TBP-SS"},
		Grid: []relroute.Options{{
			Vehicles: 40, HighwayLength: 1500,
			Duration: 20, Flows: 2, FlowPackets: 5,
		}},
		Seeds: []int64{1, 2, 3},
	}
	results, err := relroute.RunCampaign(relroute.ExperimentConfig{}, relroute.Campaign{Runs: spec.Runs()})
	if err != nil {
		log.Fatal(err)
	}
	for _, block := range relroute.Replications(results, len(spec.Seeds)) {
		sums, err := relroute.Summaries(block)
		if err != nil {
			log.Fatal(err)
		}
		agg := relroute.AggregateSummaries(sums)
		fmt.Printf("%s: %d replications\n", agg.Protocol, agg.N)
	}
	// Output:
	// Greedy: 3 replications
	// TBP-SS: 3 replications
}

// ExampleTaxonomy walks the Fig. 1 protocol catalogue.
func ExampleTaxonomy() {
	implemented := 0
	for _, e := range relroute.Taxonomy() {
		if e.Implemented() {
			implemented++
		}
	}
	fmt.Printf("catalogued: %d, implemented: %d\n", len(relroute.Taxonomy()), implemented)
	// Output: catalogued: 29, implemented: 22
}
