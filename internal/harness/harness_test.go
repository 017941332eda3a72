package harness

import (
	"encoding/json"
	"testing"
)

// col returns the index of tab's column called name.
func col(t *testing.T, tab *Table, name string) int {
	t.Helper()
	for i, c := range tab.Columns {
		if c.Name == name {
			return i
		}
	}
	t.Fatalf("%s has no column %q", tab.ID, name)
	return -1
}

// TestAllExperimentsRegisteredAndRunnable runs every registered experiment
// (quick, seed 1) and checks the shape of its table: a row holds one cell
// per column, a text column holds only text, and the JSON encoding decodes
// to a table that renders byte for byte as the original.
func TestAllExperimentsRegisteredAndRunnable(t *testing.T) {
	exps := All()
	if len(exps) != 18 {
		t.Fatalf("registered experiments = %d", len(exps))
	}
	wantIDs := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1",
		"abl-storm", "abl-regimes", "abl-lifetime", "abl-probvsgeo", "abl-tickets", "abl-hybrid", "abl-disaster",
		"churn", "trace-replay", "link-accuracy", "chaos"}
	for _, id := range wantIDs {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q missing", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown experiment id resolved")
	}
	if testing.Short() {
		t.Skip("every experiment is a set of full simulations; skipped in -short")
	}
	for _, exp := range exps {
		t.Run(exp.ID, func(t *testing.T) {
			tab, err := exp.Run(Config{Seed: 1, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID != exp.ID || len(tab.Rows) == 0 {
				t.Fatalf("table %q with %d rows", tab.ID, len(tab.Rows))
			}
			for r, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("row %d has %d cells for %d columns", r, len(row), len(tab.Columns))
				}
				for i, c := range row {
					if tab.Columns[i].Format == Text && (c.Text == "" || c.Num != 0) {
						t.Errorf("row %d: text column %q holds %+v", r, tab.Columns[i].Name, c)
					}
				}
			}
			data, err := json.Marshal(tab)
			if err != nil {
				t.Fatal(err)
			}
			var back Table
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if got, want := back.String(), tab.String(); got != want {
				t.Fatalf("JSON round trip renders\n%s\nwant\n%s", got, want)
			}
		})
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "demo",
		Columns: []Column{{"a", Text}, {"bee", Int}, {"c", Float}, {"d", Pct}, {"e", Pct2}, {"f", Signed}},
		Notes:   []string{"a note"},
	}
	tab.AddRow("1", 2, 12.34, 0.5, 0.000123, -0.25)
	tab.AddRow("2", "-", 0.0, 1.0, 0.0, 0.0)
	want := "== x: demo ==\n" +
		"  a  bee  c     d       e      f     \n" +
		"  -  ---  ----  ------  -----  ------\n" +
		"  1  2    12.3  50.0%   0.01%  -0.250\n" +
		"  2  -    0     100.0%  0.00%  +0.000\n" +
		"  note: a note\n\n"
	if got := tab.String(); got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
}

func TestFig1TaxonomyComplete(t *testing.T) {
	tab, err := Fig1Taxonomy(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 25 {
		t.Fatalf("taxonomy rows = %d, want the full Fig. 1 catalogue", len(tab.Rows))
	}
	categories := map[string]bool{}
	for _, row := range tab.Rows {
		categories[row[col(t, tab, "category")].Text] = true
	}
	if len(categories) != 5 {
		t.Fatalf("categories rendered = %d, want 5", len(categories))
	}
}

func TestFig2DiscoveryDelivers(t *testing.T) {
	tab, err := Fig2Discovery(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	disc, rreqCol, rrepCol, pdr := col(t, tab, "discoveries"), col(t, tab, "RREQ tx"), col(t, tab, "RREP tx"), col(t, tab, "PDR")
	delivered := false
	for _, row := range tab.Rows {
		if row[disc].Num == 0 {
			t.Fatalf("no discovery in run %v:\n%s", row, tab)
		}
		rreq, rrep := row[rreqCol].Num, row[rrepCol].Num
		if rreq > 0 && rrep > 0 && rreq <= rrep {
			t.Fatalf("RREQ flood %v not above RREP unicast %v — the Fig. 2 asymmetry", rreq, rrep)
		}
		// at least one run must deliver (all-partitioned would be a regression)
		delivered = delivered || row[pdr].Num > 0
	}
	if !delivered {
		t.Fatalf("no run delivered anything:\n%s", tab)
	}
}

func TestFig3AnalyticMatchesNumeric(t *testing.T) {
	tab, err := Fig3LinkLifetime(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	errCol := col(t, tab, "err")
	for _, row := range tab.Rows {
		if c := row[errCol]; c.Text == "" && c.Num > 0.01 {
			t.Fatalf("analytic vs numeric error %v in row %v", c.Num, row)
		}
	}
}

func TestFig4SameDirectionOutlivesOpposite(t *testing.T) {
	tab, err := Fig4Direction(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	dur := map[string]float64{}
	for _, row := range tab.Rows {
		dur[row[col(t, tab, "direction class")].Text] = row[col(t, tab, "mean duration (s)")].Num
	}
	same, opp := dur["same"], dur["opposite"]
	if opp <= 0 || same <= 0 {
		t.Fatalf("missing measurements:\n%s", tab)
	}
	if same <= 2*opp {
		t.Fatalf("same-direction %v s not decisively above opposite %v s", same, opp)
	}
}

func TestFig5RSUsHelpSparseTraffic(t *testing.T) {
	tab, err := Fig5RSU(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// at the sparsest density, PDR with RSUs must beat PDR without
	vehicles, rsus, pdr := col(t, tab, "vehicles"), col(t, tab, "RSUs"), col(t, tab, "PDR")
	var base, assisted float64
	for _, row := range tab.Rows {
		if row[vehicles] != tab.Rows[0][vehicles] {
			continue // only the sparsest density rows
		}
		if row[rsus].Num == 0 {
			base = row[pdr].Num
		} else {
			assisted = max(assisted, row[pdr].Num)
		}
	}
	if assisted <= base {
		t.Fatalf("RSUs did not lift sparse PDR: %v → %v\n%s", base, assisted, tab)
	}
}

func TestFig6ZonesSuppressDuplication(t *testing.T) {
	tab, err := Fig6Zones(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tx := map[string]float64{}
	for _, row := range tab.Rows {
		tx[row[col(t, tab, "protocol")].Text] = row[col(t, tab, "data transmits")].Num
	}
	if !(tx["Zone"] < tx["Flooding"]) {
		t.Fatalf("zone transmissions %v not below flooding %v", tx["Zone"], tx["Flooding"])
	}
	if !(tx["LORA-DCBF"] < tx["Flooding"]) {
		t.Fatalf("gateway transmissions %v not below flooding %v", tx["LORA-DCBF"], tx["Flooding"])
	}
}

// E-A1's note: flooding's transmissions per delivered packet grow with
// density.
func TestBroadcastStormGrowsWithDensity(t *testing.T) {
	tab, err := AblationBroadcastStorm(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	perDelivered := col(t, tab, "tx per delivered")
	for r := 1; r < len(tab.Rows); r++ {
		if prev, cur := tab.Rows[r-1][perDelivered].Num, tab.Rows[r][perDelivered].Num; cur <= prev {
			t.Fatalf("tx per delivered %v at row %d does not exceed %v at the sparser row:\n%s", cur, r, prev, tab)
		}
	}
}

func TestAblationHybridRuns(t *testing.T) {
	tab, err := AblationHybrid(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	protos := map[string]bool{}
	for _, row := range tab.Rows {
		protos[row[col(t, tab, "protocol")].Text] = true
	}
	if !protos["Hybrid"] || !protos["TBP-SS"] || !protos["PBR"] {
		t.Fatalf("missing protocols: %v", protos)
	}
}

func TestAblationDisasterDegradesGracefully(t *testing.T) {
	tab, err := AblationDisaster(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	pdr := map[string]float64{}
	for _, row := range tab.Rows {
		pdr[row[col(t, tab, "configuration")].Text] = row[col(t, tab, "PDR")].Num
	}
	healthy := pdr["DRR, RSUs healthy"]
	damaged := pdr["DRR, RSUs destroyed at t/2"]
	if damaged >= healthy {
		t.Fatalf("destroying the RSUs did not hurt: %v vs healthy %v\n%s", damaged, healthy, tab)
	}
}

// TestLinkAccuracyQuickRowsDeliver: a quick row that delivers nothing
// scores the receipt estimator without any data-plane MAC feedback, so
// every quick row at seed 1 must carry some traffic.
func TestLinkAccuracyQuickRowsDeliver(t *testing.T) {
	tab, err := LinkAccuracy(Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	est, scen, pdr := col(t, tab, "estimator"), col(t, tab, "scenario"), col(t, tab, "PDR")
	for _, row := range tab.Rows {
		if row[pdr].Num <= 0 {
			t.Errorf("%s on %s delivered nothing", row[est].Text, row[scen].Text)
		}
	}
}

// TestParallelTablesByteIdentical is the harness half of the determinism
// contract: for a fixed seed, an experiment renders byte-identical tables
// whether the runner pool uses one worker or many. It exercises a seed
// grid (fig2), a protocol × options grid (fig6), and an explicit labelled
// campaign with a post-build hook (abl-disaster).
func TestParallelTablesByteIdentical(t *testing.T) {
	for _, id := range []string{"fig2", "fig6", "abl-disaster", "link-accuracy"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			exp, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q missing", id)
			}
			seq, err := exp.Run(Config{Quick: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := exp.Run(Config{Quick: true, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if seq.String() != par.String() {
				t.Fatalf("worker count changed rendered table:\n--- workers=1 ---\n%s--- workers=8 ---\n%s",
					seq.String(), par.String())
			}
		})
	}
}

func TestScenarioChurnExperiment(t *testing.T) {
	tab, err := ScenarioChurn(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 3 protocols × 2 worlds", len(tab.Rows))
	}
	world, joins, leaves := col(t, tab, "world"), col(t, tab, "joins"), col(t, tab, "leaves")
	for _, row := range tab.Rows {
		churned := row[joins].Num != 0 || row[leaves].Num != 0
		if closed := row[world].Text == "closed"; closed && churned {
			t.Errorf("closed world churned: %v", row)
		} else if !closed && (row[joins].Num == 0 || row[leaves].Num == 0) {
			t.Errorf("open world without churn: %v", row)
		}
	}
}

func TestScenarioTraceReplayExperiment(t *testing.T) {
	tab, err := ScenarioTraceReplay(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	delivered := false
	for _, row := range tab.Rows {
		delivered = delivered || row[col(t, tab, "PDR")].Num > 0
	}
	if !delivered {
		t.Fatal("no protocol delivered anything over the replayed trace")
	}
}
