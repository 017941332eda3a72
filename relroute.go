// Package relroute is a reliable-routing toolkit for vehicular ad hoc
// networks (VANETs), reproducing "Reliable Routing in Vehicular Ad hoc
// Networks" (Yan, Mitton, Li — WWASN/ICDCS-W 2010) as a runnable system:
// a discrete-event VANET simulator (IDM mobility over road networks,
// log-normal shadowing radio, CSMA MAC) and implementations of
// representative routing protocols from all five categories of the
// paper's taxonomy — connectivity-, mobility-, infrastructure-,
// geographic-location-, and probability-model-based — including the
// authors' ticket-based stability-probing protocol (TBP-SS).
//
// Quickstart:
//
//	sum, err := relroute.Run("TBP-SS", relroute.Options{
//		Seed: 1, Vehicles: 60, Duration: 60,
//	})
//	if err != nil { ... }
//	fmt.Println(sum) // PDR, delay, overhead, ...
//
// Every figure and table of the paper maps to an experiment that can be
// regenerated programmatically:
//
//	tab, err := relroute.RunExperiment("table1", relroute.ExperimentConfig{})
//	fmt.Print(tab)
//
// or from the command line via cmd/vanetbench.
package relroute

import (
	"errors"
	"fmt"

	"github.com/vanetlab/relroute/internal/checkpoint"
	"github.com/vanetlab/relroute/internal/core"
	"github.com/vanetlab/relroute/internal/faults"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/harness"
	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/linkstate"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/runner"
	"github.com/vanetlab/relroute/internal/scenario"
	"github.com/vanetlab/relroute/internal/sim"
	"github.com/vanetlab/relroute/internal/traces"
)

// Options parameterises a simulation run; see scenario.Options for the
// field-by-field documentation. The zero value is a 60-vehicle, 2 km
// highway with four CBR flows for 60 simulated seconds.
type Options = scenario.Options

// OptionError is what Run and BuildScenario return for an Options field
// holding a non-finite value, or a negative one where negative means
// nothing; errors.As finds it under the wrapping the batch runner adds.
type OptionError = scenario.OptionError

// ExitStatus is the process exit status a command reports for a non-nil
// err: 2 for an option value the scenario builder rejected as meaningless
// (NaN, a negative duration) and 1 for every other failure.
func ExitStatus(err error) int {
	var bad *OptionError
	if errors.As(err, &bad) {
		return 2
	}
	return 1
}

// Summary is the metrics snapshot of one run: PDR, delays, hop counts,
// control overhead, collision rate, and route-maintenance counters.
type Summary = metrics.Summary

// ExperimentConfig configures a paper-experiment run. Quick mode shrinks
// populations and durations for CI.
type ExperimentConfig = harness.Config

// Experiment is one reproducible paper artifact (figure or table).
type Experiment = harness.Experiment

// Table is the rendered result of an experiment.
type Table = harness.Table

// TaxonomyEntry is one protocol of the paper's Fig. 1 catalogue.
type TaxonomyEntry = core.Entry

// Category is one of the five routing classes of the taxonomy.
type Category = core.Category

// Taxonomy classes, re-exported from the core package.
const (
	Connectivity   = core.Connectivity
	Mobility       = core.Mobility
	Infrastructure = core.Infrastructure
	Geographic     = core.Geographic
	Probability    = core.Probability
)

// Kind selects the world topology of a run.
type Kind = scenario.Kind

// Topology kinds, re-exported from the scenario package.
const (
	HighwayKind = scenario.HighwayKind
	CityKind    = scenario.CityKind
	RingKind    = scenario.RingKind
)

// Protocols returns the names accepted by Run: at least two protocols per
// taxonomy category.
func Protocols() []string { return scenario.Protocols() }

// Scenarios lists the named scenario presets accepted by Options.Scenario
// — composed topology/traffic/workload bundles like "city-rush" (an
// open-world grid under a rush-hour arrival ramp) or "v2i" (roadside
// servers with request/response traffic).
func Scenarios() []string { return scenario.Names() }

// Estimators lists the reliability plane's registered link-quality
// estimator names, accepted by Options.Estimator: "kinematic" (Eqn 4 on
// beaconed kinematics), "rssi" (signal-trend extrapolation), "receipt"
// (MAC-feedback EWMA with an age-based residual), and "composite" (the
// default: kinematic lifetime + RSSI receipt probability).
func Estimators() []string { return linkstate.Names() }

// LinkAccuracyCell is one (estimator, scenario) cell of the link-accuracy
// experiment: prediction MAE/bias against ground-truth link breaks.
type LinkAccuracyCell = harness.LinkAccCell

// LinkAccuracy runs the estimator × scenario prediction-accuracy grid and
// returns its cells (the structured form of the "link-accuracy"
// experiment, used by vanetbench's linkacc subcommand).
func LinkAccuracy(cfg ExperimentConfig) ([]LinkAccuracyCell, error) {
	return harness.LinkAccuracyData(cfg)
}

// LinkAccuracyTable renders accuracy cells as the experiment's table —
// the same renderer RunExperiment("link-accuracy") uses.
func LinkAccuracyTable(cells []LinkAccuracyCell) *Table {
	return harness.LinkAccuracyTable(cells)
}

// LinkAuditHorizon is the cap, in seconds, applied to both predicted and
// observed residual lifetimes by the link-accuracy audit.
const LinkAuditHorizon = harness.LinkAccuracyHorizon

// ScenarioDescriptions maps each named scenario to its one-line
// description, for listings.
func ScenarioDescriptions() map[string]string { return scenario.Descriptions() }

// FaultProfiles lists the fault plane's registered chaos profiles,
// accepted by Options.Faults: deterministic, seeded failure schedules
// like "rsu-blackout" (every RSU dies at half-time), "rolling-crashes"
// (vehicles crash and recover in sequence), "jammed-corridor" (a lossy
// geometric region), "partition" (a hard roadnet cut), and
// "energy-depletion" (relays dying one by one).
func FaultProfiles() []string { return faults.Names() }

// FaultProfileDescriptions maps each fault profile to its one-line
// description, for listings.
func FaultProfileDescriptions() map[string]string { return faults.Descriptions() }

// ChaosCell is one (fault profile, protocol) cell of the chaos
// experiment: whole-run and fault-window PDR plus the recovery metrics.
type ChaosCell = harness.ChaosCell

// Chaos runs the fault-profile × protocol degradation grid and returns
// its cells (the structured form of the "chaos" experiment, used by
// vanetbench's chaos subcommand).
func Chaos(cfg ExperimentConfig) ([]ChaosCell, error) {
	return harness.ChaosData(cfg)
}

// ChaosTable renders chaos cells as the experiment's table — the same
// renderer RunExperiment("chaos") uses.
func ChaosTable(cells []ChaosCell) *Table {
	return harness.ChaosTable(cells)
}

// Track is one vehicle's recorded trajectory, replayable through
// Options.Tracks (or from a SUMO FCD file via Options.TracePath). The
// track's waypoint span is its active window: the vehicle joins the world
// when the trace begins and leaves when it ends.
type Track = mobility.Track

// Waypoint is one sampled trace point of a Track.
type Waypoint = mobility.Waypoint

// ReadTraceFile parses a SUMO floating-car-data (FCD) XML export into
// replayable tracks.
func ReadTraceFile(path string) ([]Track, error) { return traces.ReadFile(path) }

// WriteTraceFile serialises tracks as a SUMO FCD export document.
func WriteTraceFile(path string, tracks []Track) error { return traces.WriteFile(path, tracks) }

// Run builds and executes one simulation of the named protocol.
func Run(protocol string, opts Options) (Summary, error) {
	return scenario.RunProtocol(protocol, opts)
}

// BuildScenario assembles a simulation of the named protocol without
// running it — the entry point for recorded runs (RecordRun) and for
// callers that interrupt or instrument the run.
func BuildScenario(protocol string, opts Options) (*Scenario, error) {
	return scenario.Build(protocol, opts)
}

// ErrInterrupted is returned (wrapped) by runs whose engine was stopped
// early via Interrupt — a timeout, a cancelled campaign, or Ctrl-C.
var ErrInterrupted = sim.ErrInterrupted

// Checkpoint is a run record: the run's identity (protocol + options), its
// progress (simulation time and event count), the full RNG stream table, a
// state digest and, from RecordRun, a digest trail of every layer at each
// simulated second. Restoring rebuilds the run deterministically and
// proves — by trail, stream and digest verification — that the rebuild
// reproduces it, or names the first time and layers at which it does not.
// See internal/checkpoint for the design.
type Checkpoint = checkpoint.Snapshot

// Checkpoint error classes, for errors.Is: a non-checkpoint file, a
// corrupted or truncated payload, an incompatible format version, and a
// restore whose re-derived state failed verification.
var (
	ErrCheckpointMagic    = checkpoint.ErrMagic
	ErrCheckpointChecksum = checkpoint.ErrChecksum
	ErrCheckpointVersion  = checkpoint.ErrVersion
	ErrCheckpointVerify   = checkpoint.ErrVerify
)

// ReadCheckpoint reads and validates a checkpoint file (magic, checksum,
// format version).
func ReadCheckpoint(path string) (*Checkpoint, error) { return checkpoint.ReadFile(path) }

// WriteCheckpoint atomically writes a checkpoint file.
func WriteCheckpoint(path string, snap *Checkpoint) error { return checkpoint.WriteFile(path, snap) }

// RestoreCheckpoint rebuilds the snapshot's run and replays it to the
// snapshot's time, verifying every trail point, the state digest and
// every RNG stream; a mismatch is ErrCheckpointVerify naming where.
func RestoreCheckpoint(snap *Checkpoint) (*Scenario, error) { return checkpoint.Restore(snap) }

// CompleteRestored runs a restored scenario to its end and returns the
// summary, byte-identical to the uninterrupted run's.
func CompleteRestored(sc *Scenario) (Summary, error) { return checkpoint.Complete(sc) }

// RecordRun runs a freshly built scenario to its end, returning its
// summary — the same as an unrecorded run's — and its run record.
func RecordRun(sc *Scenario) (Summary, *Checkpoint, error) { return checkpoint.Record(sc) }

// Campaign is an ordered batch of simulation runs; see BatchRun and
// BatchSpec for assembling one.
type Campaign = runner.Campaign

// BatchRun is one run of a campaign: a protocol on one option set. Its
// Setup hook receives the built Scenario before execution — the seam for
// failure injection and extra instrumentation events.
type BatchRun = runner.Run

// Scenario is an assembled, not-yet-run simulation, as passed to a
// BatchRun's Setup hook.
type Scenario = scenario.Scenario

// BatchSpec declares a run grid — the cross product of protocols ×
// option sets × replication seeds — that expands into campaign runs in
// deterministic order.
type BatchSpec = runner.Spec

// BatchResult pairs a campaign run with its summary or error.
type BatchResult = runner.Result

// Aggregate holds cross-replication statistics (mean, stddev, 95% CI)
// over every numeric Summary field.
type Aggregate = metrics.Aggregate

// Stat is one aggregated metric: sample mean, sample stddev, and the 95%
// confidence half-width across replications.
type Stat = metrics.Stat

// RunBatch executes a campaign across a pool of workers (<= 0 means
// GOMAXPROCS) and returns one result per run, in submission order. For a
// fixed per-run seed the results are identical for any worker count: each
// run is a self-contained single-threaded simulation.
func RunBatch(c Campaign, workers int) []BatchResult {
	return runner.Execute(c, workers)
}

// BatchPool executes campaigns with explicit policy: worker count,
// per-run timeout, retry budget, and — via ExecuteContext /
// ExecuteResumable — cancellation and durable campaign manifests.
type BatchPool = runner.Pool

// CampaignJournal is a durable campaign manifest: completed runs are
// recorded in an append-only JSONL file, and re-executing the same
// campaign against it skips them, returning the recorded summaries
// byte-identically.
type CampaignJournal = runner.Journal

// OpenCampaignJournal opens (or creates) the manifest at path for the
// campaign. An existing file must belong to the same campaign — a
// mismatched fingerprint is an error.
func OpenCampaignJournal(path string, c Campaign) (*CampaignJournal, error) {
	return runner.OpenJournal(path, c)
}

// CampaignFingerprint hashes a campaign's run list — the identity a
// CampaignJournal is keyed by.
func CampaignFingerprint(c Campaign) uint64 { return runner.CampaignHash(c) }

// Summaries unwraps batch results into summaries, surfacing the first
// failed run as an error.
func Summaries(results []BatchResult) ([]Summary, error) {
	return runner.Summaries(results)
}

// Replications groups batch results into consecutive blocks of k — one
// block per (protocol, grid point) cell when the campaign came from a
// BatchSpec whose Seeds axis has length k. If k does not divide
// len(results) — e.g. the campaign mixes spec expansions with explicit
// runs — the trailing partial block is dropped.
func Replications(results []BatchResult, k int) [][]BatchResult {
	return runner.Replications(results, k)
}

// AggregateSummaries folds per-seed summaries of one scenario into
// cross-seed statistics.
func AggregateSummaries(sums []Summary) Aggregate {
	return metrics.AggregateSummaries(sums)
}

// Experiments lists every reproducible figure/table experiment.
func Experiments() []Experiment { return harness.All() }

// RunExperiment regenerates one paper artifact by ID (fig1..fig6, table1,
// abl-*).
func RunExperiment(id string, cfg ExperimentConfig) (*Table, error) {
	exp, ok := harness.ByID(id)
	if !ok {
		ids := make([]string, 0)
		for _, e := range harness.All() {
			ids = append(ids, e.ID)
		}
		return nil, fmt.Errorf("relroute: unknown experiment %q (known: %v)", id, ids)
	}
	return exp.Run(cfg)
}

// Taxonomy returns the paper's Fig. 1 protocol catalogue with
// implementation pointers.
func Taxonomy() []TaxonomyEntry { return core.Taxonomy() }

// LinkLifetime solves the paper's Eqn (4) for two vehicles with constant
// planar velocities: the time until their distance reaches the
// communication range r. It returns relroute.Forever for links that never
// break under the model.
func LinkLifetime(posA, velA, posB, velB Vec2, r float64) float64 {
	return link.LifetimeVec(posA, velA, posB, velB, r)
}

// Forever is the lifetime of a link that never breaks under the model.
const Forever = link.Forever

// Vec2 is a position (meters) or velocity (m/s) in the simulation plane.
type Vec2 = geom.Vec2

// V constructs a Vec2.
func V(x, y float64) Vec2 { return geom.V(x, y) }

// PathLifetime composes per-link lifetimes with the paper's rule: the
// lifetime of a routing path is the minimum over its links.
func PathLifetime(links []float64) float64 { return link.PathLifetime(links) }

// LinkStability computes the probability-model stability metric (expected
// or mean link duration) behind TBP-SS; see core.LinkStability.
func LinkStability(m core.Metric, params core.StabilityParams, posA, velA, posB, velB Vec2, r float64) float64 {
	return core.LinkStability(m, params, posA, velA, posB, velB, r)
}

// Stability metric selectors, re-exported from the core package.
const (
	MetricExpectedDuration = core.MetricExpectedDuration
	MetricMeanDuration     = core.MetricMeanDuration
	MetricDeterministic    = core.MetricDeterministic
)

// StabilityParams configures the probability model behind LinkStability.
type StabilityParams = core.StabilityParams
