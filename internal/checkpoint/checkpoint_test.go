package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/vanetlab/relroute/internal/metrics"
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

// roundTrip asserts that capture-at-mid-run → write → read → restore in a
// "fresh process" → run-to-end reproduces the uninterrupted summary
// exactly.
func roundTrip(t *testing.T, protocol string, opts scenario.Options) {
	t.Helper()
	want := runClean(t, protocol, opts)
	snap := captureAt(t, protocol, opts, opts.Duration/2)
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
		t.Fatalf("restore: %v", err)
	}
	got, err := Complete(sc)
	if err != nil {
		t.Fatalf("complete: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored run diverged from uninterrupted run:\ngot  %+v\nwant %+v", got, want)
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

func TestPolicyRunMatchesUninterrupted(t *testing.T) {
	o := baseOpts()
	want := runClean(t, "TBP-SS", o)
	sc, err := scenario.Build("TBP-SS", o)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	boundaries := 0
	got, done, err := Run(sc, Policy{Path: path, Every: 3, OnCheckpoint: func(*Snapshot) { boundaries++ }})
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("Run did not report completion")
	}
	if boundaries == 0 {
		t.Fatal("Run wrote no checkpoints")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("segmented run diverged from Scenario.Run:\ngot  %+v\nwant %+v", got, want)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("completed run left its checkpoint file behind: %v", err)
	}
}

func TestStopAtThenResumeCompletes(t *testing.T) {
	o := baseOpts()
	want := runClean(t, "TBP-SS", o)
	sc, err := scenario.Build("TBP-SS", o)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, done, err := Run(sc, Policy{Path: path, Every: 4, StopAt: 10})
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("StopAt run reported completion")
	}
	snap, err := ReadFile(path)
	if err != nil {
		t.Fatalf("StopAt left no loadable checkpoint: %v", err)
	}
	if snap.T != 10 {
		t.Fatalf("final checkpoint at t=%g, want 10", snap.T)
	}
	resumed, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, done, err := Run(resumed, Policy{Path: path, Every: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("resumed run did not complete")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stop/resume run diverged from uninterrupted run:\ngot  %+v\nwant %+v", got, want)
	}
}
