// Package harness defines the reproduction experiments: one per figure and
// table of the paper, plus the ablations supporting Table I's qualitative
// claims. Each experiment declares its scenario grid as data, submits it to
// the runner's worker pool, and renders a plain-text table whose rows are
// the series a plot of the corresponding figure would show.
package harness

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/runner"
)

// Config parameterises an experiment run.
type Config struct {
	// Seed drives all scenarios (default 1).
	Seed int64
	// Quick shrinks durations and populations for CI-speed runs; the
	// shapes still hold but confidence intervals widen.
	Quick bool
	// Workers bounds the simulation worker pool; <= 0 means GOMAXPROCS.
	// Tables are byte-identical for any worker count: the runner returns
	// results in submission order and each run is seeded independently.
	Workers int
	// Context, when non-nil, cancels in-flight simulation work: pending
	// runs fail fast and running engines are interrupted at their next
	// event boundary (the CLI's Ctrl-C path).
	Context context.Context
	// ManifestDir, when non-empty, makes every submitted campaign durable:
	// completed runs are journaled to
	// <dir>/campaign-<fingerprint>.jsonl, and re-running the same
	// experiment against the same directory resumes — finished runs are
	// reused from the journal, byte-identical, instead of re-executed.
	// The fingerprint keys the file, so experiments that submit several
	// campaigns get one journal each.
	ManifestDir string
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// submit executes a campaign on the config's worker pool and unwraps the
// summaries in submission order, threading through the config's
// cancellation context and campaign manifest.
func (c Config) submit(camp runner.Campaign) ([]metrics.Summary, error) {
	results, err := c.submitResults(camp)
	if err != nil {
		return nil, err
	}
	return runner.Summaries(results)
}

// submitResults is submit for experiments that need the full results —
// the single execution path every experiment goes through, so the
// config's context and manifest plumbing apply uniformly.
func (c Config) submitResults(camp runner.Campaign) ([]runner.Result, error) {
	pool := runner.Pool{Workers: c.Workers}
	ctx := c.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if c.ManifestDir == "" {
		return pool.ExecuteContext(ctx, camp), nil
	}
	if err := os.MkdirAll(c.ManifestDir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: campaign manifest: %w", err)
	}
	path := filepath.Join(c.ManifestDir, fmt.Sprintf("campaign-%016x.jsonl", runner.CampaignHash(camp)))
	j, err := runner.OpenJournal(path, camp)
	if err != nil {
		return nil, err
	}
	results := pool.ExecuteResumable(ctx, camp, j)
	if err := j.Close(); err != nil {
		return nil, fmt.Errorf("harness: campaign manifest: %w", err)
	}
	return results, nil
}

// Table is the render unit: experiment output as labelled rows.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the short handle (fig1..fig6, table1, abl-*).
	ID string
	// Title describes what is reproduced.
	Title string
	// Run executes the experiment.
	Run func(cfg Config) (*Table, error)
}

// registry is populated by the experiment files' init order below.
func registry() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "taxonomy of VANET routing techniques (Fig. 1)", Run: Fig1Taxonomy},
		{ID: "fig2", Title: "connectivity-based RREQ/RREP discovery (Fig. 2)", Run: Fig2Discovery},
		{ID: "fig3", Title: "lifetime of communication link, Eqns 1-4 (Fig. 3)", Run: Fig3LinkLifetime},
		{ID: "fig4", Title: "direction of mobility and link duration (Fig. 4)", Run: Fig4Direction},
		{ID: "fig5", Title: "road-side units rescue sparse traffic (Fig. 5)", Run: Fig5RSU},
		{ID: "fig6", Title: "zone and gateway duplicate suppression (Fig. 6)", Run: Fig6Zones},
		{ID: "table1", Title: "measured pros/cons of the five categories (Table I)", Run: Table1Summary},
		{ID: "abl-storm", Title: "broadcast storm growth with density (E-A1)", Run: AblationBroadcastStorm},
		{ID: "abl-regimes", Title: "mobility prediction across traffic regimes (E-A2)", Run: AblationMobilityRegimes},
		{ID: "abl-lifetime", Title: "path lifetime vs speed: lifetime-aware wins (E-A3)", Run: AblationPathLifetime},
		{ID: "abl-probvsgeo", Title: "probability vs geographic under heterogeneity (E-A4)", Run: AblationProbVsGeo},
		{ID: "abl-tickets", Title: "ticket budget trade-off in TBP-SS (E-A5)", Run: AblationTickets},
		{ID: "abl-hybrid", Title: "the conclusion's hybrid probability+mobility proposal (E-A6)", Run: AblationHybrid},
		{ID: "abl-disaster", Title: "infrastructure damaged mid-run, Sec. V-A (E-A7)", Run: AblationDisaster},
		{ID: "churn", Title: "open-world vehicle churn vs the closed-world assumption (E-S1)", Run: ScenarioChurn},
		{ID: "trace-replay", Title: "end-to-end FCD trace replay through the playback model (E-S2)", Run: ScenarioTraceReplay},
		{ID: "link-accuracy", Title: "predicted vs observed link lifetime per estimator (E-R1)", Run: LinkAccuracy},
		{ID: "chaos", Title: "graceful degradation under injected faults (E-F1)", Run: Chaos},
	}
}

// All returns every registered experiment, sorted by ID for deterministic
// listings.
func All() []Experiment {
	exps := registry()
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// fmtF formats a float at sensible precision for tables.
func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
