package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/scenario"
)

// runClean executes the scenario uninterrupted and returns its summary.
func runClean(t *testing.T, protocol string, opts scenario.Options) metrics.Summary {
	t.Helper()
	sum, err := scenario.RunProtocol(protocol, opts)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	return sum
}

// captureAt builds the scenario, advances to t, captures, and returns the
// snapshot (tearing the interrupted run down).
func captureAt(t *testing.T, protocol string, opts scenario.Options, at float64) *Snapshot {
	t.Helper()
	sc, err := scenario.Build(protocol, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer sc.World.EndRun()
	sc.World.StartRun()
	if err := sc.World.AdvanceTo(at); err != nil {
		t.Fatalf("advance to %g: %v", at, err)
	}
	snap, err := Capture(sc)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	return snap
}

// roundTrip asserts that Record's summary is the uninterrupted run's, and
// that its record and a mid-run capture each survive write → read →
// restore in a "fresh process" → run-to-end with that summary exactly.
func roundTrip(t *testing.T, protocol string, opts scenario.Options) {
	t.Helper()
	want := runClean(t, protocol, opts)
	sc, err := scenario.Build(protocol, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sum, rec, err := Record(sc)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if !reflect.DeepEqual(sum, want) {
		t.Errorf("recorded run diverged from scenario.RunProtocol:\ngot  %+v\nwant %+v", sum, want)
	}
	for _, snap := range []*Snapshot{captureAt(t, protocol, opts, opts.Duration/2), rec} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := WriteFile(path, snap); err != nil {
			t.Fatalf("write: %v", err)
		}
		loaded, err := ReadFile(path)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		sc, err := Restore(loaded)
		if err != nil {
			t.Fatalf("restore at t=%g: %v", snap.T, err)
		}
		got, err := Complete(sc)
		if err != nil {
			t.Fatalf("complete: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run restored at t=%g diverged from uninterrupted run:\ngot  %+v\nwant %+v", snap.T, got, want)
		}
	}
}

func baseOpts() scenario.Options {
	return scenario.Options{Seed: 42, Vehicles: 30, Duration: 20, Flows: 3, FlowPackets: 12}
}

func TestRoundTripHighwayTBPSS(t *testing.T) {
	roundTrip(t, "TBP-SS", baseOpts())
}

func TestRoundTripCityRushGreedy(t *testing.T) {
	o := baseOpts()
	o.Scenario = "city-rush"
	roundTrip(t, "Greedy", o)
}

func TestRoundTripOpenWorldChurn(t *testing.T) {
	o := baseOpts()
	o.ArrivalRate = 0.5
	o.MeanLifetime = 15
	roundTrip(t, "Greedy", o)
}

func TestRoundTripFaultProfile(t *testing.T) {
	o := baseOpts()
	o.Faults = "rolling-crashes"
	roundTrip(t, "AODV", o)
}

func TestCaptureRefusesInMemoryChannel(t *testing.T) {
	o := baseOpts()
	sc, err := scenario.Build("Greedy", o)
	if err != nil {
		t.Fatal(err)
	}
	sc.Opts.Channel = sc.World.Channel() // simulate an injected model
	if _, err := Capture(sc); err == nil {
		t.Fatal("Capture accepted a scenario with an in-memory channel model")
	}
}

func TestRestoreRefusesSetupSnapshots(t *testing.T) {
	snap := captureAt(t, "Greedy", baseOpts(), 5)
	snap.HasSetup = true
	if _, err := Restore(snap); err == nil {
		t.Fatal("Restore accepted a HasSetup snapshot")
	}
}

func TestFileFormatRejectsCorruption(t *testing.T) {
	snap := captureAt(t, "Greedy", baseOpts(), 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flip := append([]byte(nil), raw...)
	flip[len(flip)-1] ^= 0xff
	bad := filepath.Join(dir, "flip.ckpt")
	os.WriteFile(bad, flip, 0o644)
	if _, err := ReadFile(bad); !errors.Is(err, ErrChecksum) {
		t.Errorf("flipped payload byte: got %v, want ErrChecksum", err)
	}

	trunc := filepath.Join(dir, "trunc.ckpt")
	os.WriteFile(trunc, raw[:len(raw)-5], 0o644)
	if _, err := ReadFile(trunc); !errors.Is(err, ErrChecksum) {
		t.Errorf("truncated payload: got %v, want ErrChecksum", err)
	}

	foreign := filepath.Join(dir, "foreign.ckpt")
	os.WriteFile(foreign, []byte("<fcd-export>this is not a checkpoint</fcd-export>"), 0o644)
	if _, err := ReadFile(foreign); !errors.Is(err, ErrMagic) {
		t.Errorf("foreign file: got %v, want ErrMagic", err)
	}
}

func TestVerifyCatchesDigestTampering(t *testing.T) {
	snap := captureAt(t, "Greedy", baseOpts(), 5)
	snap.Digest ^= 1
	if _, err := Restore(snap); !errors.Is(err, ErrVerify) {
		t.Fatalf("tampered digest: got %v, want ErrVerify", err)
	}
}

func TestVerifyCatchesStreamTampering(t *testing.T) {
	snap := captureAt(t, "Greedy", baseOpts(), 5)
	if len(snap.Streams) == 0 {
		t.Fatal("snapshot has no streams")
	}
	snap.Streams[0].Draws++
	if _, err := Restore(snap); !errors.Is(err, ErrVerify) {
		t.Fatalf("tampered stream table: got %v, want ErrVerify", err)
	}
}

// TestTrailNamesFirstDivergence verifies a clean record against a build
// that crashes one node at t=7.3: the first trail point that differs must
// be t=8, and Resume stops there. The crash is armed from a beacon hook
// once t > 7 because an event scheduled at build time would sit in the
// engine's queue, and so in its digest layer, from t=1.
func TestTrailNamesFirstDivergence(t *testing.T) {
	o := baseOpts()
	sc, err := scenario.Build("Greedy", o)
	if err != nil {
		t.Fatal(err)
	}
	_, rec, err := Record(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Trail) != int(o.Duration) || rec.Trail[7].T != 8 {
		t.Fatalf("trail has %d points, want one per simulated second", len(rec.Trail))
	}

	perturbed, err := scenario.Build("Greedy", o)
	if err != nil {
		t.Fatal(err)
	}
	w := perturbed.World
	victim := w.NodeIDs(netstack.Vehicle)[0]
	armed := false
	w.SetBeaconHeardHook(func(netstack.NodeID) {
		if !armed && w.Engine().Now() > 7 {
			armed = true
			w.Engine().At(7.3, func() { w.CrashNode(victim) })
		}
	})
	err = Resume(perturbed, rec)
	if !errors.Is(err, ErrVerify) {
		t.Fatalf("Resume of the perturbed build: got %v, want ErrVerify", err)
	}
	if !strings.Contains(err.Error(), "first divergence at t=8 ") || !strings.Contains(err.Error(), "nodes") {
		t.Fatalf("err = %v, want the divergence at t=8 naming the nodes layer", err)
	}
	if now := w.Engine().Now(); now != 8 {
		t.Fatalf("Resume stopped at t=%g, want 8: no earlier boundary may be flagged", now)
	}
}
