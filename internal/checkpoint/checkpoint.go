// Package checkpoint records a simulation run and verifies that a rebuild
// of it reproduces the run, naming the first simulated instant and the
// subsystems at which it does not.
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
//   - progress: the simulation time T and executed-event count;
//   - verification: the full RNG stream table — (owner, seed, draw
//     position) for every generator the run consumes — and a multi-layer
//     FNV-1a digest of the live state (engine clock and event queue,
//     spatial grid, mobility model, MAC, every node and its link-state
//     monitor, membership, location service, metrics, link audit);
//   - trail: for a Record, the event count and every layer's digest at
//     each whole simulated second.
//
// Restore rebuilds the scenario from the identity, replays the fresh
// engine through every trail point to T, and checks each on the way. A
// rebuilt run is not assumed identical — it is checked, and the first
// mismatch names its time and layers. Boundaries are event-free:
// Engine.Run(t1); Run(t2) executes exactly the event sequence of Run(t2),
// so recording a run does not change it.
//
// # On-disk format
//
// An 8-byte magic ("RRCKPT01", the version in the last two bytes), an
// 8-byte little-endian payload length, an 8-byte FNV-1a checksum of the
// payload, then the JSON-encoded Snapshot. Files are written atomically
// (temp file + rename), so a crash mid-write leaves the previous file
// intact, never a torn one.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/prng"
	"github.com/vanetlab/relroute/internal/scenario"
)

// FormatVersion is the snapshot schema version. Bump it when Snapshot's
// fields or any DigestInto implementation changes incompatibly; ReadFile
// rejects mismatched files with ErrVersion.
const FormatVersion = 1

// trailEvery is the simulated time between Record's trail points.
const trailEvery = 1.0

var fileMagic = [8]byte{'R', 'R', 'C', 'K', 'P', 'T', '0', '1'}

var (
	// ErrMagic marks a file that is not a checkpoint at all.
	ErrMagic = errors.New("checkpoint: bad magic (not a checkpoint file)")
	// ErrChecksum marks a corrupted or truncated checkpoint payload.
	ErrChecksum = errors.New("checkpoint: payload checksum mismatch")
	// ErrVersion marks a checkpoint from an incompatible format version.
	ErrVersion = errors.New("checkpoint: unsupported format version")
	// ErrVerify marks a restore whose replayed state failed verification
	// against the snapshot (trail, digest or stream divergence).
	ErrVerify = errors.New("checkpoint: restored state does not match snapshot")
)

// Snapshot is one checkpoint: everything needed to rebuild a run and
// prove the rebuild reached the captured state.
type Snapshot struct {
	Version  int    `json:"version"`
	Protocol string `json:"protocol"`
	Name     string `json:"name"`
	// Opts are the post-adjustment scenario options (sc.Opts after Build),
	// on which Build is idempotent. Opts.Channel must be nil — custom
	// in-memory channel models are not serializable, and Capture refuses
	// them.
	Opts scenario.Options `json:"opts"`
	// T is the simulation time of the snapshot (Duration for a Record);
	// Events the executed-event count there.
	T      float64 `json:"t"`
	Events uint64  `json:"events"`
	// Duration is the run's target end time.
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
	// Trail is Record's digest trail, one point per boundary up to T.
	Trail []TrailPoint `json:"trail,omitempty"`
}

// TrailPoint is the world at one trail boundary: the time, the
// executed-event count and the digest of every layer of
// netstack.World.DigestInto.
type TrailPoint struct {
	T      float64          `json:"t"`
	Events uint64           `json:"events"`
	Layers []netstack.Layer `json:"layers"`
}

// selfContained refuses a scenario whose Options cannot be serialized.
func selfContained(sc *scenario.Scenario) error {
	if sc.Opts.Channel != nil {
		return fmt.Errorf("checkpoint: scenario %s/%s uses an in-memory channel model; only options-derived channels are serializable", sc.Protocol, sc.Name)
	}
	return nil
}

// Capture snapshots a scenario at the current engine time. It must be
// called at an event-free boundary — after an AdvanceTo(t) returned, with
// no events executed since — never from inside a running event. The
// scenario's Options must be self-contained (Opts.Channel nil).
func Capture(sc *scenario.Scenario) (*Snapshot, error) {
	if err := selfContained(sc); err != nil {
		return nil, err
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

// Record runs a freshly built scenario to its Duration in segments
// trailEvery apart, appending a TrailPoint at every boundary, and returns
// the run's summary — Scenario.Run's, since boundaries are event-free —
// with the snapshot captured at Duration, trail included. The scenario's
// Options must be self-contained (Opts.Channel nil).
func Record(sc *scenario.Scenario) (metrics.Summary, *Snapshot, error) {
	if err := selfContained(sc); err != nil {
		return metrics.Summary{}, nil, err
	}
	w := sc.World
	w.StartRun()
	defer w.EndRun()
	var trail []TrailPoint
	for t, end := w.Engine().Now(), sc.Opts.Duration; t < end; {
		t = min(t+trailEvery, end)
		if err := w.AdvanceTo(t); err != nil {
			return metrics.Summary{}, nil, err
		}
		trail = append(trail, pointOf(w))
	}
	snap, err := Capture(sc)
	if err != nil {
		return metrics.Summary{}, nil, err
	}
	snap.Trail = trail
	w.CompleteRun()
	return sc.Summary(), snap, nil
}

// pointOf is the world's trail point at the current engine time.
func pointOf(w *netstack.World) TrailPoint {
	return TrailPoint{T: w.Engine().Now(), Events: w.Engine().EventCount(), Layers: w.Layers()}
}

// verify compares the world at the point's boundary with the point. On a
// mismatch it returns ErrVerify naming the time and every layer that
// differs.
func (p TrailPoint) verify(w *netstack.World) error {
	got := pointOf(w)
	var differ []string
	for i, l := range p.Layers {
		if i >= len(got.Layers) || got.Layers[i] != l {
			differ = append(differ, l.Name)
		}
	}
	for _, l := range got.Layers[min(len(p.Layers), len(got.Layers)):] {
		differ = append(differ, l.Name)
	}
	if got.Events == p.Events && len(differ) == 0 {
		return nil
	}
	return fmt.Errorf("%w: first divergence at t=%g (replay %d events, record %d): layers %s",
		ErrVerify, p.T, got.Events, p.Events, strings.Join(differ, ", "))
}

// WriteFile atomically writes the snapshot to path: the payload lands in
// a temp file in the same directory and is renamed into place, so readers
// (and crashes) see either the old file or the new one, never a torn
// write.
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

// Restore rebuilds the snapshot's scenario from scratch and replays it to
// the snapshot through Resume. On success the returned scenario's engine
// sits at snap.T with the run's periodic machinery armed (StartRun has
// run); continue with Complete.
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

// Resume replays a freshly built scenario to the snapshot and verifies it:
// at each trail point in order, the event count and every layer's digest;
// then at snap.T the event count, every stream's (owner, seed, position)
// — which names the diverging stream — and the whole digest. It stops at
// the first mismatch, so no earlier boundary diverged; a snapshot without
// a trail is checked at snap.T alone. The scenario must be a fresh build
// of the snapshot's identity (same protocol and Opts), with any Setup hook
// already re-applied.
func Resume(sc *scenario.Scenario, snap *Snapshot) error {
	w := sc.World
	w.StartRun()
	for _, p := range snap.Trail {
		if err := w.AdvanceTo(p.T); err != nil {
			return fmt.Errorf("checkpoint: replay to t=%g: %w", p.T, err)
		}
		if err := p.verify(w); err != nil {
			return err
		}
	}
	if err := w.AdvanceTo(snap.T); err != nil {
		return fmt.Errorf("checkpoint: replay to t=%g: %w", snap.T, err)
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
