// Package harness defines the reproduction experiments: one per figure and
// table of the paper, the ablations supporting Table I's qualitative
// claims, and the scenario, reliability-plane and fault-plane studies. Each
// experiment declares its scenario grid as data, submits it to the runner's
// worker pool, and returns a Table of typed cells whose rows are the series
// a plot of the corresponding figure would show. Table.Render prints it as
// plain text; encoding/json writes it as data.
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
	results, err := Execute(c, camp)
	if err != nil {
		return nil, err
	}
	return runner.Summaries(results)
}

// Execute runs a campaign on cfg's worker pool under its context and
// returns one result per run, in submission order. With a ManifestDir it
// journals the campaign to <dir>/campaign-<fingerprint>.jsonl, resuming
// from what that file already records. It is the one execution path of
// every experiment and of the sweep, so a manifest is named and opened in
// one place.
func Execute(cfg Config, camp runner.Campaign) ([]runner.Result, error) {
	pool := runner.Pool{Workers: cfg.Workers}
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.ManifestDir == "" {
		return pool.ExecuteResumable(ctx, camp, nil), nil
	}
	if err := os.MkdirAll(cfg.ManifestDir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign manifest: %w", err)
	}
	path := filepath.Join(cfg.ManifestDir, fmt.Sprintf("campaign-%016x.jsonl", runner.CampaignHash(camp)))
	j, err := runner.OpenJournal(path, camp)
	if err != nil {
		return nil, err
	}
	results := pool.ExecuteResumable(ctx, camp, j)
	if err := j.Close(); err != nil {
		return nil, fmt.Errorf("campaign manifest: %w", err)
	}
	return results, nil
}

// Format is how a column prints its numeric cells. The zero value, Text,
// is a column of labels.
type Format string

const (
	Text   Format = ""       // labels, printed as they are
	Int    Format = "int"    // an integer count
	Float  Format = "float"  // fmtF: precision by magnitude
	Pct    Format = "pct"    // a ratio as a percentage to 0.1
	Pct2   Format = "pct2"   // a ratio as a percentage to 0.01
	Signed Format = "signed" // %+.3f, for a signed error
)

// Column names a table column and the format of its numeric cells. The
// name carries the unit, as in "delay(s)".
type Column struct {
	Name   string `json:"name"`
	Format Format `json:"format,omitempty"`
}

// Cell is one table cell: a number, printed in its column's Format, or a
// text label. In a numeric column a text cell is a placeholder for a value
// with no meaning ("-", "inf"), so Num is always finite.
type Cell struct {
	Num  float64 `json:"num,omitempty"`
	Text string  `json:"text,omitempty"`
}

// Table is one experiment's result: named, formatted columns and rows of
// cells. Render prints it as aligned plain text; encoding/json writes it
// as data.
type Table struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Columns []Column `json:"columns"`
	Rows    [][]Cell `json:"rows"`
	Notes   []string `json:"notes,omitempty"`
}

// AddRow appends a row. Each value is a string (a label or placeholder),
// an int, an int64 or a float64.
func (t *Table) AddRow(values ...any) {
	row := make([]Cell, len(values))
	for i, v := range values {
		switch v := v.(type) {
		case string:
			row[i].Text = v
		case int:
			row[i].Num = float64(v)
		case int64:
			row[i].Num = float64(v)
		case float64:
			row[i].Num = v
		default:
			panic(fmt.Sprintf("harness: table cell of type %T", v))
		}
	}
	t.Rows = append(t.Rows, row)
}

// text prints cell c of column i.
func (t *Table) text(i int, c Cell) string {
	if c.Text != "" || i >= len(t.Columns) {
		return c.Text
	}
	switch t.Columns[i].Format {
	case Int:
		return fmt.Sprint(int64(c.Num))
	case Float:
		return fmtF(c.Num)
	case Pct:
		return fmt.Sprintf("%.1f%%", c.Num*100)
	case Pct2:
		return fmt.Sprintf("%.2f%%", c.Num*100)
	case Signed:
		return fmt.Sprintf("%+.3f", c.Num)
	}
	return c.Text
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	head := make([]string, len(t.Columns))
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		head[i] = c.Name
		widths[i] = len(c.Name)
	}
	rows := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		rows[r] = make([]string, len(row))
		for i, c := range row {
			rows[r][i] = t.text(i, c)
			if i < len(widths) && len(rows[r][i]) > widths[i] {
				widths[i] = len(rows[r][i])
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
	line(head)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
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
	// ID is the short handle: fig1..fig6, table1, abl-*, churn,
	// trace-replay, link-accuracy or chaos.
	ID string
	// Title describes what is reproduced.
	Title string
	// Run executes the experiment.
	Run func(cfg Config) (*Table, error)
}

// registry lists every experiment: the figures, Table I, the ablations,
// then the scenario, reliability and fault studies.
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

// fmtF prints a Float cell at a precision chosen by its magnitude.
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
