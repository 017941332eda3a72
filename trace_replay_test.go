package relroute_test

// The FCD round-trip golden test pins the whole trace pipeline end to
// end: synthetic mobility is recorded (the tracegen path), serialised as
// a SUMO FCD export, parsed back, and replayed as a playback scenario on
// the campaign runner. The rendered result table must be byte-identical
// at Workers=1 and Workers=8 and match the checked-in golden capture —
// any drift in the FCD encoding, the track active windows, the playback
// interpolation, or the open-world membership machinery shows up here.
// Regenerate after an INTENTIONAL behaviour change with
//
//	go test -run TestFCDRoundTripGolden -update-golden

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/vanetlab/relroute"
	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/traces"
)

// recordedTracks generates the deterministic source trace (the in-process
// equivalent of cmd/tracegen, via the shared pipeline).
func recordedTracks(t *testing.T) []relroute.Track {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	model, err := mobility.NewHighwayModel(rng, 10, 1500, 26, 4)
	if err != nil {
		t.Fatal(err)
	}
	return mobility.Record(model, 0.5, 25)
}

// replayTable runs the replayed tracks through a small protocol campaign
// and renders the summaries as a table.
func replayTable(t *testing.T, tracks []relroute.Track, workers int) string {
	t.Helper()
	protos := []string{"Greedy", "TBP-SS"}
	camp := relroute.Campaign{}
	camp.AddSpec(relroute.BatchSpec{
		Protocols: protos,
		Grid: []relroute.Options{{
			Seed: 1, Duration: 20, Flows: 3, FlowPackets: 6, Tracks: tracks,
		}},
	})
	results, err := relroute.RunCampaign(relroute.ExperimentConfig{Workers: workers}, camp)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := relroute.Summaries(results)
	if err != nil {
		t.Fatal(err)
	}
	tab := &relroute.Table{
		ID:    "trace-roundtrip",
		Title: "tracegen → FCD write → FCD read → playback scenario",
		Columns: []relroute.Column{{Name: "protocol"}, {Name: "scenario"}, {Name: "sent"},
			{Name: "delivered"}, {Name: "hops"}, {Name: "control"}},
	}
	for _, sum := range sums {
		tab.AddRow(sum.Protocol, sum.Scenario,
			fmt.Sprint(sum.DataSent), fmt.Sprint(sum.DataDelivered),
			fmt.Sprintf("%.2f", sum.MeanHops), fmt.Sprint(sum.ControlTotal))
	}
	return tab.String()
}

func TestFCDRoundTripGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	src := recordedTracks(t)

	// tracegen → traces.Write → traces.Read
	var buf bytes.Buffer
	if err := traces.Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	replayed, err := traces.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(src) {
		t.Fatalf("round trip lost tracks: %d → %d", len(src), len(replayed))
	}
	// the FCD encoding quantises to centimeters; windows must survive exactly
	for i := range src {
		sf, sl := src[i].Span()
		rf, rl := replayed[i].Span()
		if sf != rf || sl != rl {
			t.Fatalf("track %d window changed: [%v,%v] → [%v,%v]", i, sf, sl, rf, rl)
		}
	}

	// replayed scenario runs are byte-stable across worker counts
	seq := replayTable(t, replayed, 1)
	par := replayTable(t, replayed, 8)
	if seq != par {
		t.Fatalf("worker count changed the replay table:\n--- w1 ---\n%s--- w8 ---\n%s", seq, par)
	}

	path := filepath.Join("testdata", "golden_trace_roundtrip.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(seq), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if seq != string(want) {
		t.Fatalf("trace round-trip output diverged from the golden capture.\n--- got ---\n%s\n--- want ---\n%s", seq, want)
	}
}
