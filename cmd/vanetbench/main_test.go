package main

import (
	"encoding/json"
	"os"
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

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig1", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunQuickFigure(t *testing.T) {
	if err := run([]string{"-exp", "fig3", "-quick", "-seed", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig2", "-quick", "-parallel", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestSweep(t *testing.T) {
	err := runSweep([]string{
		"-protocols", "Greedy", "-vehicles", "15,25", "-seeds", "2",
		"-duration", "12",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSweepRejectsBadGrid(t *testing.T) {
	if err := runSweep([]string{"-vehicles", "ten"}); err == nil {
		t.Fatal("non-numeric vehicle list accepted")
	}
	if err := runSweep([]string{"-protocols", ""}); err == nil {
		t.Fatal("empty protocol list accepted")
	}
}

// The -json report holds every table the run printed, and each decodes
// back to a table that renders byte for byte as stdout did.
func TestJSONReportRerendersStdout(t *testing.T) {
	dir := t.TempDir()
	out, path := filepath.Join(dir, "stdout"), filepath.Join(dir, "report.json")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	err = run([]string{"-exp", "fig3", "-quick", "-json", path})
	os.Stdout = stdout
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Seed != 1 || !rep.Quick || len(rep.Tables) != 1 {
		t.Fatalf("report header = seed %d, quick %v, %d tables; want 1, true, 1", rep.Seed, rep.Quick, len(rep.Tables))
	}
	if got := rep.Tables[0].String(); got != string(printed) {
		t.Fatalf("decoded table renders\n%s\nbut stdout was\n%s", got, printed)
	}
}

// A positional argument stops flag parsing, so everything after it used
// to be ignored: "vanetbench bogus -list" ran the whole suite. Every mode
// must refuse instead, before it simulates or prints anything.
func TestRejectsPositionalArguments(t *testing.T) {
	cases := []struct {
		name string
		mode func([]string) error
		args []string
	}{
		{"retired subcommand", run, []string{"scale"}},
		{"unknown subcommand before a flag", run, []string{"bogus", "-list"}},
		{"sweep", runSweep, []string{"x"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "stdout")
			f, err := os.Create(out)
			if err != nil {
				t.Fatal(err)
			}
			stdout := os.Stdout
			os.Stdout = f
			err = tc.mode(tc.args)
			os.Stdout = stdout
			f.Close()
			if err == nil {
				t.Fatalf("%q accepted", tc.args)
			}
			if !strings.Contains(err.Error(), "sweep") {
				t.Errorf("error %q does not name the sweep subcommand", err)
			}
			if printed, _ := os.ReadFile(out); len(printed) > 0 {
				t.Errorf("printed to stdout before failing:\n%s", printed)
			}
		})
	}
}

// A non-finite sweep axis is refused while the campaign is built, with
// the typed error: the exit status is 2 and the message names the option.
func TestSweepMeaninglessOptionExitsTwo(t *testing.T) {
	err := runSweep([]string{"-protocols", "Greedy", "-vehicles", "10", "-seeds", "1", "-duration", "2", "-speed", "NaN"})
	if err == nil || relroute.ExitStatus(err) != 2 || !strings.Contains(err.Error(), "SpeedMean") {
		t.Fatalf("err = %v (exit status %d), want status 2 naming SpeedMean", err, relroute.ExitStatus(err))
	}
	if err := runSweep([]string{"-vehicles", "ten"}); relroute.ExitStatus(err) != 1 {
		t.Errorf("malformed grid: exit status %d, want 1", relroute.ExitStatus(err))
	}
}

// A refused sweep leaves nothing behind: no manifest directory, no
// journal header for runs that could never execute.
func TestSweepRefusedBeforeManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "d")
	err := runSweep([]string{"-speed", "NaN", "-manifest", dir, "-seeds", "2", "-vehicles", "20,40", "-protocols", "Greedy,AODV"})
	if err == nil || relroute.ExitStatus(err) != 2 || !strings.Contains(err.Error(), "SpeedMean") {
		t.Fatalf("err = %v (exit status %d), want status 2 naming SpeedMean", err, relroute.ExitStatus(err))
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("manifest directory %s exists after a refused sweep (stat: %v)", dir, err)
	}
}
