package relroute_test

// The committed checkpoint fixture pins cross-version restore: the
// snapshot in testdata — mid-run, without a trail — was captured by a
// binary running the event queue heap-only — the pre-calendar layout —
// and a current binary, whose queue fronts the same slab with a calendar
// ring, must rebuild it, pass digest and RNG-stream verification, and
// finish to the exact summary of an uninterrupted run. That only holds
// because the queue's pop order and DigestInto are canonical (time, seq)
// contracts, independent of the internal layout; if either ever leaks
// layout, this test is the tripwire.

import (
	"os"
	"reflect"
	"testing"

	"github.com/vanetlab/relroute"
	"github.com/vanetlab/relroute/internal/checkpoint"
)

const heapFixturePath = "testdata/fixture_heapq.ckpt"

// Regenerate with: RELROUTE_REGEN_FIXTURES=1 go test -run HeapFixture .
// Only needed if the snapshot schema version bumps; the point of the
// fixture is that it is NOT regenerated when the queue internals change.
// The heap-only layout is reachable only from eventq's own tests, so a
// regenerated snapshot is captured under the calendar queue — the same
// bytes, by the layout invariance eventq's TestDigestLayoutInvariant pins.
func regenHeapFixture(t *testing.T) {
	sc, err := relroute.BuildScenario("TBP-SS", relroute.Options{
		Seed: 9, Vehicles: 30, Duration: 24, Flows: 3, FlowPackets: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.World.StartRun()
	if err := sc.World.AdvanceTo(12); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Capture(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := relroute.WriteCheckpoint(heapFixturePath, snap); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointHeapFixtureRestores(t *testing.T) {
	if os.Getenv("RELROUTE_REGEN_FIXTURES") != "" {
		regenHeapFixture(t)
	}
	snap, err := relroute.ReadCheckpoint(heapFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Events == 0 || snap.T == 0 || len(snap.Trail) != 0 {
		t.Fatalf("fixture is not the trail-less mid-run snapshot: %+v", snap)
	}

	// Restore replays the first half under the calendar queue and
	// verifies the world digest and every RNG stream position against
	// what the heap-only binary recorded.
	restored, err := relroute.RestoreCheckpoint(snap)
	if err != nil {
		t.Fatalf("heap-generated snapshot failed to restore under the calendar queue: %v", err)
	}
	got, err := relroute.CompleteRestored(restored)
	if err != nil {
		t.Fatal(err)
	}

	want, err := relroute.Run(snap.Protocol, snap.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run resumed from the heap-generated snapshot diverged:\ngot  %+v\nwant %+v", got, want)
	}
}
