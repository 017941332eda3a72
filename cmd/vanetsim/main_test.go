package main

import "testing"

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
