package main

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"github.com/vanetlab/relroute"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSmallSimulation(t *testing.T) {
	err := run([]string{
		"-proto", "Greedy", "-vehicles", "20", "-duration", "10",
		"-flows", "2", "-packets", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunCityTopology(t *testing.T) {
	err := run([]string{
		"-proto", "AODV", "-city", "-vehicles", "25", "-duration", "10",
		"-flows", "2", "-packets", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	if err := run([]string{"-proto", "Bogus", "-duration", "5"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunRejectsPositionalArgument(t *testing.T) {
	// would otherwise ignore the flags and run the 60-vehicle, 60 s default
	if err := run([]string{"bogus", "-vehicles", "10", "-duration", "2"}); err == nil {
		t.Fatal("positional argument accepted")
	}
}

func TestRunListScenarios(t *testing.T) {
	if err := run([]string{"-list-scenarios"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceReplay(t *testing.T) {
	err := run([]string{
		"-proto", "TBP-SS", "-trace", "../../testdata/fixture_5veh.fcd.xml",
		"-duration", "15", "-flows", "2", "-packets", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingTraceFile(t *testing.T) {
	if err := run([]string{"-trace", "no-such-file.xml", "-duration", "5"}); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

func TestRunNamedScenario(t *testing.T) {
	err := run([]string{
		"-proto", "Greedy", "-scenario", "city-rush",
		"-vehicles", "16", "-duration", "12", "-flows", "2", "-packets", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownScenario(t *testing.T) {
	if err := run([]string{"-scenario", "atlantis", "-duration", "5"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestRunOpenWorldFlags(t *testing.T) {
	err := run([]string{
		"-proto", "Greedy", "-vehicles", "14", "-duration", "12",
		"-arrival", "1", "-lifetime", "6", "-flows", "2", "-packets", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
}

// An option value that means nothing is a usage error: exit status 2 and a
// message naming the option the flag sets. Every other failure stays 1, and
// the two negatives with a meaning of their own still run.
func TestMeaninglessOptionExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		option string
	}{
		{[]string{"-range", "NaN"}, "Range"},
		{[]string{"-speed", "Inf"}, "SpeedMean"},
		{[]string{"-duration", "-5"}, "Duration"},
		{[]string{"-vehicles", "-3"}, "Vehicles"},
	} {
		err := run(tc.args)
		if err == nil || relroute.ExitStatus(err) != 2 || !strings.Contains(err.Error(), tc.option) {
			t.Errorf("%v: err = %v (exit status %d), want status 2 naming %s", tc.args, err, relroute.ExitStatus(err), tc.option)
		}
	}
	if err := run([]string{"-proto", "Bogus", "-duration", "5"}); relroute.ExitStatus(err) != 1 {
		t.Errorf("unknown protocol: exit status %d, want 1", relroute.ExitStatus(err))
	}
	small := []string{"-vehicles", "12", "-duration", "5", "-flows", "1", "-packets", "2"}
	for _, args := range [][]string{{"-proto", "DRR", "-rsus", "-1"}, {"-speedstd", "-1"}} {
		if err := run(append(args, small...)); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

// -checkpoint writes a record that -verify accepts; a record whose identity
// names a different seed than the run it holds fails verification with
// exit status 1, at the first trail point.
func TestVerifyRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	args := []string{"-proto", "Greedy", "-vehicles", "16", "-duration", "6", "-flows", "2", "-packets", "3", "-seed", "1"}
	if err := run(append(args, "-checkpoint", path)); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-verify", path}); err != nil {
		t.Fatalf("-verify on a record of the same binary: %v", err)
	}

	rec, err := relroute.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	rec.Opts.Seed = 2
	if err := relroute.WriteCheckpoint(path, rec); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-verify", path})
	if !errors.Is(err, relroute.ErrCheckpointVerify) || relroute.ExitStatus(err) != 1 {
		t.Fatalf("-verify on a different seed: err = %v (exit status %d), want ErrCheckpointVerify and status 1", err, relroute.ExitStatus(err))
	}
	if !strings.Contains(err.Error(), "at t=1 ") {
		t.Errorf("err = %v, want the divergence at the first trail point, t=1", err)
	}
}
