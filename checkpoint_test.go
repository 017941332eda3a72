package relroute_test

// Run-record integration tests at the public API: a recorded run restored
// in a "fresh process" must verify and complete to the exact summary of
// the uninterrupted run, and a campaign resumed from its manifest must
// reproduce the golden experiment tables without re-executing journaled
// runs, at any worker count.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/vanetlab/relroute"
)

func TestCheckpointRoundTripPublicAPI(t *testing.T) {
	opts := relroute.Options{Seed: 7, Vehicles: 40, Duration: 30, Flows: 3, FlowPackets: 10}
	want, err := relroute.Run("TBP-SS", opts)
	if err != nil {
		t.Fatal(err)
	}

	sc, err := relroute.BuildScenario("TBP-SS", opts)
	if err != nil {
		t.Fatal(err)
	}
	sum, rec, err := relroute.RecordRun(sc)
	if err != nil {
		t.Fatal(err)
	}
	if sum != want {
		t.Fatalf("recorded run diverged from the plain run:\ngot  %+v\nwant %+v", sum, want)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := relroute.WriteCheckpoint(path, rec); err != nil {
		t.Fatal(err)
	}

	// "Fresh process": reload the record, restore (verifying the trail),
	// and complete.
	snap, err := relroute.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := relroute.RestoreCheckpoint(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := relroute.CompleteRestored(restored)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("restored run diverged from uninterrupted run:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestGoldenExperimentResumable re-renders golden experiments through a
// campaign manifest twice: the first pass executes and journals every
// run, the second reconstructs every result from the journal. Both must
// match the golden capture byte for byte at one worker and eight — the
// manifest is a cache of the deterministic contract, not a side channel
// that can drift.
func TestGoldenExperimentResumable(t *testing.T) {
	if testing.Short() {
		t.Skip("golden experiments are full simulations; skipped in -short")
	}
	passes := []struct {
		name    string
		workers int
	}{{"execute-w1", 1}, {"resume-w8", 8}}
	for _, id := range []string{"fig2", "table1"} {
		manifest := t.TempDir()
		for _, p := range passes {
			workers := p.workers
			t.Run(id+"/"+p.name, func(t *testing.T) {
				tab, err := relroute.RunExperiment(id, relroute.ExperimentConfig{
					Seed: 1, Quick: true, Workers: workers, ManifestDir: manifest,
				})
				if err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("golden_%s_w1.txt", id)))
				if err != nil {
					t.Fatal(err)
				}
				if tab.String() != string(want) {
					t.Fatalf("manifest-backed %s output diverged from the golden capture.\n--- got ---\n%s\n--- want ---\n%s",
						id, tab.String(), want)
				}
			})
		}
	}
}
