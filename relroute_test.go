package relroute_test

import (
	"strings"
	"testing"

	"github.com/vanetlab/relroute"
)

func TestRunQuickstart(t *testing.T) {
	sum, err := relroute.Run("TBP-SS", relroute.Options{
		Seed: 1, Vehicles: 40, HighwayLength: 1500,
		Duration: 30, Flows: 3, FlowPackets: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.DataSent != 24 {
		t.Fatalf("sent = %d", sum.DataSent)
	}
	if sum.PDR <= 0.5 {
		t.Fatalf("PDR = %v on a well-connected highway", sum.PDR)
	}
}

func TestProtocolsCoverEveryCategory(t *testing.T) {
	names := relroute.Protocols()
	if len(names) < 15 {
		t.Fatalf("protocols = %d", len(names))
	}
	byName := map[string]bool{}
	for _, n := range names {
		byName[n] = true
	}
	for _, representative := range []string{"Flooding", "PBR", "DRR", "Greedy", "TBP-SS"} {
		if !byName[representative] {
			t.Errorf("representative %q missing from Protocols()", representative)
		}
	}
}

func TestRunExperimentUnknownID(t *testing.T) {
	if _, err := relroute.RunExperiment("fig99", relroute.ExperimentConfig{}); err == nil {
		t.Fatal("unknown experiment accepted")
	} else if !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("error %v does not name the bad id", err)
	}
}

func TestRunExperimentFig1(t *testing.T) {
	tab, err := relroute.RunExperiment("fig1", relroute.ExperimentConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "fig1" || len(tab.Rows) == 0 {
		t.Fatalf("table = %+v", tab)
	}
}

func TestExperimentsListed(t *testing.T) {
	if got := len(relroute.Experiments()); got != 18 {
		t.Fatalf("experiments = %d", got)
	}
}

func TestEstimatorsListed(t *testing.T) {
	names := relroute.Estimators()
	if len(names) != 4 {
		t.Fatalf("estimators = %v", names)
	}
	// an unknown estimator is rejected at build time, not at run time
	if _, err := relroute.Run("Greedy", relroute.Options{Estimator: "nope", Duration: 1}); err == nil {
		t.Fatal("unknown estimator accepted")
	}
}

func TestScenariosListed(t *testing.T) {
	names := relroute.Scenarios()
	if len(names) < 7 {
		t.Fatalf("named scenarios = %d: %v", len(names), names)
	}
	descs := relroute.ScenarioDescriptions()
	for _, name := range names {
		if descs[name] == "" {
			t.Errorf("scenario %q undocumented", name)
		}
	}
}

func TestTaxonomyExposed(t *testing.T) {
	entries := relroute.Taxonomy()
	if len(entries) < 25 {
		t.Fatalf("taxonomy entries = %d", len(entries))
	}
	categories := map[relroute.Category]bool{}
	for _, e := range entries {
		categories[e.Category] = true
	}
	for _, c := range []relroute.Category{
		relroute.Connectivity, relroute.Mobility, relroute.Infrastructure,
		relroute.Geographic, relroute.Probability,
	} {
		if !categories[c] {
			t.Errorf("category %v missing", c)
		}
	}
}

func TestLinkLifetimeFacade(t *testing.T) {
	lt := relroute.LinkLifetime(
		relroute.V(0, 0), relroute.V(30, 0),
		relroute.V(100, 0), relroute.V(25, 0), 250)
	// A passes B and breaks 250 m ahead: (250+100)/5 = 70
	if lt < 69.99 || lt > 70.01 {
		t.Fatalf("lifetime = %v, want 70", lt)
	}
	if got := relroute.PathLifetime([]float64{10, 4, 9}); got != 4 {
		t.Fatalf("path lifetime = %v", got)
	}
	if relroute.LinkLifetime(relroute.V(0, 0), relroute.V(30, 0),
		relroute.V(100, 0), relroute.V(30, 0), 250) != relroute.Forever {
		t.Fatal("co-moving link should live forever")
	}
}

func TestLinkStabilityFacade(t *testing.T) {
	stable := relroute.LinkStability(relroute.MetricMeanDuration, relroute.StabilityParams{},
		relroute.V(0, 0), relroute.V(30, 0), relroute.V(80, 0), relroute.V(29, 0), 250)
	fleeting := relroute.LinkStability(relroute.MetricMeanDuration, relroute.StabilityParams{},
		relroute.V(0, 0), relroute.V(30, 0), relroute.V(80, 0), relroute.V(-29, 0), 250)
	if stable <= fleeting {
		t.Fatalf("stability ordering violated: %v vs %v", stable, fleeting)
	}
}

func TestDeterministicFacadeRuns(t *testing.T) {
	opts := relroute.Options{Seed: 4, Vehicles: 25, Duration: 15, Flows: 2, FlowPackets: 4}
	a, err := relroute.Run("Greedy", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := relroute.Run("Greedy", opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same-seed runs diverged:\n%+v\n%+v", a, b)
	}
}
