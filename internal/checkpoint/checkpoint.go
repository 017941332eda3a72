// Package checkpoint makes simulation runs crash-safe and resumable with
// byte-identical recovery.
//
// # Design: logical snapshot + verified deterministic re-derivation
//
// A running world is a graph of closures — every pending event in the
// engine's queue captures routers, nodes, and buffers by reference — so a
// faithful object-graph serialization is impossible in Go without
// rewriting every subsystem around serializable event descriptors. The
// repository's determinism contract offers a stronger primitive instead:
// a run is a pure function of (protocol, Options), byte-identical at
// every worker count. A snapshot therefore stores the run's
// *identity* and *progress*, not its object graph:
//
//   - identity: protocol name plus the post-adjustment scenario Options
//     (scenario.Build is idempotent on them);
//   - progress: the simulation time T and executed-event count at the
//     checkpoint boundary;
//   - verification: the full RNG stream table — (owner, seed, draw
//     position) for every generator the run consumes — and a multi-layer
//     FNV-1a digest of the live state (engine clock and event queue,
//     spatial grid, mobility model, MAC, every node and its link-state
//     monitor, membership, location service, metrics, link audit).
//
// Restore rebuilds the scenario from the identity, fast-forwards the
// fresh engine to T, and then *proves* it reached the same state by
// recomputing the digest and the stream table. A restored run is not
// assumed identical — it is checked, and the continuation is
// byte-identical to the uninterrupted run because checkpoint boundaries
// are event-free: Engine.Run(t1); Run(t2) executes exactly the event
// sequence of Run(t2).
//
// Serialized: identity, progress, stream table, digest. Re-derived on
// restore: event-queue closures (by replay), the radio neighborhood
// cache (pure memoization, rebuilt cold), kinematic-lifetime memos.
// Checkpoints are constant-size — a few KB regardless of world size —
// and capture costs one digest pass, never a serialization of the world.
//
// # On-disk format
//
// An 8-byte magic ("RRCKPT01", the version in the last two bytes), an
// 8-byte little-endian payload length, an 8-byte FNV-1a checksum of the
// payload, then the JSON-encoded Snapshot. Files are written atomically
// (temp file + rename), so a crash mid-write leaves the previous
// checkpoint intact, never a torn one.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/prng"
	"github.com/vanetlab/relroute/internal/scenario"
)

// FormatVersion is the snapshot schema version. Bump it when Snapshot's
// fields or any DigestInto implementation changes incompatibly; ReadFile
// rejects mismatched files with ErrVersion.
const FormatVersion = 1

var fileMagic = [8]byte{'R', 'R', 'C', 'K', 'P', 'T', '0', '1'}

var (
	// ErrMagic marks a file that is not a checkpoint at all.
	ErrMagic = errors.New("checkpoint: bad magic (not a checkpoint file)")
	// ErrChecksum marks a corrupted or truncated checkpoint payload.
	ErrChecksum = errors.New("checkpoint: payload checksum mismatch")
	// ErrVersion marks a checkpoint from an incompatible format version.
	ErrVersion = errors.New("checkpoint: unsupported format version")
	// ErrVerify marks a restore whose fast-forwarded state failed
	// verification against the snapshot (digest or stream divergence).
	ErrVerify = errors.New("checkpoint: restored state does not match snapshot")
)

// Snapshot is one checkpoint: everything needed to rebuild a run, prove
// the rebuild reached the captured state, and continue byte-identically.
type Snapshot struct {
	Version  int    `json:"version"`
	Protocol string `json:"protocol"`
	Name     string `json:"name"`
	// Opts are the post-adjustment scenario options (sc.Opts after Build),
	// on which Build is idempotent. Opts.Channel must be nil — custom
	// in-memory channel models are not serializable, and Capture refuses
	// them.
	Opts scenario.Options `json:"opts"`
	// T is the simulation time of the checkpoint boundary; Events the
	// executed-event count there.
	T      float64 `json:"t"`
	Events uint64  `json:"events"`
	// Duration is the run's target end time, so a resume knows how far is
	// left without consulting anything else.
	Duration float64 `json:"duration"`
	// Digest is the world state digest at T (netstack.World.Digest).
	Digest uint64 `json:"digest"`
	// Streams is the full RNG stream table at T: every generator the run
	// consumes, with its seed and draw position.
	Streams []prng.State `json:"streams"`
	// HasSetup marks a run built with an in-process Setup hook (failure
	// injection, extra instrumentation). Such a run is only rebuildable by
	// the process that owns the hook: Restore refuses, Resume (with the
	// caller re-applying the hook to a fresh build) works.
	HasSetup bool `json:"has_setup,omitempty"`
}

// Capture snapshots a scenario at the current engine time. It must be
// called at an event-free boundary — after an AdvanceTo(t) returned, with
// no events executed since — never from inside a running event. The
// scenario's Options must be self-contained (Opts.Channel nil).
func Capture(sc *scenario.Scenario) (*Snapshot, error) {
	if sc.Opts.Channel != nil {
		return nil, fmt.Errorf("checkpoint: scenario %s/%s uses an in-memory channel model; only options-derived channels are serializable", sc.Protocol, sc.Name)
	}
	w := sc.World
	return &Snapshot{
		Version:  FormatVersion,
		Protocol: sc.Protocol,
		Name:     sc.Name,
		Opts:     sc.Opts,
		T:        w.Engine().Now(),
		Events:   w.Engine().EventCount(),
		Duration: sc.Opts.Duration,
		Digest:   w.Digest(),
		Streams:  w.AppendStreamStates(nil),
	}, nil
}

// WriteFile atomically writes the snapshot to path: the payload lands in
// a temp file in the same directory and is renamed into place, so readers
// (and crashes) see either the old checkpoint or the new one, never a
// torn write.
func WriteFile(path string, snap *Snapshot) error {
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	buf := make([]byte, 0, 24+len(payload))
	buf = append(buf, fileMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint64(buf, digest.Sum64(payload))
	buf = append(buf, payload...)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	return nil
}

// ReadFile reads and validates a checkpoint file: magic, length,
// checksum, then format version. Corruption surfaces as ErrChecksum,
// foreign files as ErrMagic, incompatible versions as ErrVersion.
func ReadFile(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	if len(raw) < 24 || [8]byte(raw[:8]) != fileMagic {
		return nil, fmt.Errorf("%w: %s", ErrMagic, path)
	}
	n := binary.LittleEndian.Uint64(raw[8:16])
	sum := binary.LittleEndian.Uint64(raw[16:24])
	if uint64(len(raw)-24) != n {
		return nil, fmt.Errorf("%w: %s: truncated payload (%d of %d bytes)", ErrChecksum, path, len(raw)-24, n)
	}
	payload := raw[24:]
	if digest.Sum64(payload) != sum {
		return nil, fmt.Errorf("%w: %s", ErrChecksum, path)
	}
	var snap Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("checkpoint: decode %s: %w", path, err)
	}
	if snap.Version != FormatVersion {
		return nil, fmt.Errorf("%w: %s has version %d, this build reads %d", ErrVersion, path, snap.Version, FormatVersion)
	}
	return &snap, nil
}

// Restore rebuilds the snapshot's scenario from scratch and fast-forwards
// it to the checkpoint, verifying digest and stream table. On success the
// returned scenario's engine sits at snap.T with the run's periodic
// machinery armed (StartRun has run); continue with sc.World.AdvanceTo /
// CompleteRun / EndRun, or Complete.
func Restore(snap *Snapshot) (*scenario.Scenario, error) {
	if snap.HasSetup {
		return nil, fmt.Errorf("checkpoint: snapshot of %s/%s was captured under a run-specific Setup hook; rebuild the scenario in-process and use Resume", snap.Protocol, snap.Name)
	}
	sc, err := scenario.Build(snap.Protocol, snap.Opts)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: rebuild: %w", err)
	}
	if err := Resume(sc, snap); err != nil {
		sc.World.EndRun()
		return nil, err
	}
	return sc, nil
}

// Resume fast-forwards a freshly built scenario to the snapshot boundary
// and verifies it reached the captured state: event count, then every
// stream's (owner, seed, position) — which pinpoints the diverging
// component on mismatch — then the full state digest. The scenario must
// be a fresh build of the snapshot's identity (same protocol and Opts),
// with any Setup hook already re-applied.
func Resume(sc *scenario.Scenario, snap *Snapshot) error {
	w := sc.World
	w.StartRun()
	if err := w.AdvanceTo(snap.T); err != nil {
		return fmt.Errorf("checkpoint: fast-forward to t=%g: %w", snap.T, err)
	}
	if got := w.Engine().EventCount(); got != snap.Events {
		return fmt.Errorf("%w: executed %d events reaching t=%g, snapshot recorded %d", ErrVerify, got, snap.T, snap.Events)
	}
	got := w.AppendStreamStates(nil)
	if len(got) != len(snap.Streams) {
		return fmt.Errorf("%w: stream table has %d entries, snapshot recorded %d", ErrVerify, len(got), len(snap.Streams))
	}
	for i, s := range snap.Streams {
		if got[i] != s {
			return fmt.Errorf("%w: stream %q diverged: rebuilt (seed=%d draws=%d), snapshot (seed=%d draws=%d)",
				ErrVerify, s.Owner, got[i].Seed, got[i].Draws, s.Seed, s.Draws)
		}
	}
	if got := w.Digest(); got != snap.Digest {
		return fmt.Errorf("%w: state digest %#x, snapshot recorded %#x", ErrVerify, got, snap.Digest)
	}
	return nil
}

// Complete finishes a restored scenario: advance to the run's end,
// finalize accounting, tear down the pool, and summarize. The result is
// byte-identical to the summary an uninterrupted run would have produced.
func Complete(sc *scenario.Scenario) (metrics.Summary, error) {
	defer sc.World.EndRun()
	if err := sc.World.AdvanceTo(sc.Opts.Duration); err != nil {
		return metrics.Summary{}, err
	}
	sc.World.CompleteRun()
	return sc.Summary(), nil
}

// Policy configures segmented execution with periodic checkpoints.
type Policy struct {
	// Path is the snapshot file, atomically rewritten at every boundary.
	// Empty disables checkpoint writes (the run still executes segmented,
	// which is unobservable).
	Path string
	// Every is the simulation-time spacing of checkpoint boundaries in
	// seconds; <= 0 means 10.
	Every float64
	// StopAt, when positive and before the run's Duration, stops the run
	// at that boundary after writing a final checkpoint — the "kill and
	// resume later" path CLIs expose as -stop-at.
	StopAt float64
	// HasSetup stamps written snapshots as runner-rebuilt-only (see
	// Snapshot.HasSetup).
	HasSetup bool
	// OnCheckpoint, if non-nil, is invoked after each successful snapshot
	// write (progress reporting).
	OnCheckpoint func(snap *Snapshot)
}

func (p Policy) every() float64 {
	if p.Every <= 0 {
		return 10
	}
	return p.Every
}

// Run executes the scenario in checkpoint-spaced segments: each boundary
// is event-free, so the run's event sequence — and therefore its output —
// is byte-identical to Scenario.Run. It works on fresh builds and on
// scenarios positioned by Resume alike (segments start at the engine's
// current time).
//
// done reports whether the run reached its Duration: true means the
// summary is valid and any checkpoint file has been removed (the run
// needs no resuming); false means the run stopped at Policy.StopAt with
// a checkpoint on disk and a zero summary. An engine interruption (a
// deadline or Ctrl-C) surfaces as an error; the last boundary snapshot
// on disk is then the durable artifact — state mid-segment is never
// captured.
func Run(sc *scenario.Scenario, pol Policy) (sum metrics.Summary, done bool, err error) {
	w := sc.World
	w.StartRun()
	defer w.EndRun()
	end := sc.Opts.Duration
	stop := end
	if pol.StopAt > 0 && pol.StopAt < end {
		stop = pol.StopAt
	}
	every := pol.every()
	t := w.Engine().Now()
	for t < stop {
		t += every
		if t > stop {
			t = stop
		}
		if err := w.AdvanceTo(t); err != nil {
			return metrics.Summary{}, false, err
		}
		if pol.Path != "" && (t < end || stop < end) {
			snap, err := Capture(sc)
			if err != nil {
				return metrics.Summary{}, false, err
			}
			snap.HasSetup = pol.HasSetup
			if err := WriteFile(pol.Path, snap); err != nil {
				return metrics.Summary{}, false, err
			}
			if pol.OnCheckpoint != nil {
				pol.OnCheckpoint(snap)
			}
		}
	}
	if stop < end {
		return metrics.Summary{}, false, nil
	}
	w.CompleteRun()
	if pol.Path != "" {
		os.Remove(pol.Path) // completed runs need no resume artifact
	}
	return sc.Summary(), true, nil
}
