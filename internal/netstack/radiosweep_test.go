package netstack

import (
	"reflect"
	"testing"

	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/radio"
)

// TestSweepModeInvariantUnderChurnAndFaults is the world-level half of the
// sweep's pure-prefetch contract: the same churn scenario — joins, leaves,
// beacons, flows, plus mid-run crash/recover faults — must produce a
// byte-identical run (full metrics summary AND state digest) whether the
// radio cache is forced to sweep every epoch, forced fully lazy, or left
// on the demand heuristic. Where and when a neighborhood is built may
// differ; nothing observable may.
func TestSweepModeInvariantUnderChurnAndFaults(t *testing.T) {
	run := func(mode radio.EagerMode) (metrics.Summary, uint64) {
		t.Helper()
		const n = 10
		w := NewWorld(Config{Seed: 7}, mobility.NewPlayback(staggeredTracks(n)))
		w.SetJoinFactory(newChurnRouter)
		w.Radio().SetEagerMode(mode)
		initial := w.AddVehicleNodes(newChurnRouter)
		w.AddFlow(initial[0], initial[0]+1, 5, 2.0, 12, 256)
		w.AddVehicleFlow(3, 6, 1, 1.0, 30, 128)
		// Tracks join staggered (track i on [2i, 2i+20]); joined nodes get
		// sequential IDs, so initial[0]+k is track k's node once it joins.
		w.Engine().At(8, func() { w.CrashNode(initial[0] + 2) })
		w.Engine().At(14, func() { w.RecoverNode(initial[0] + 2) })
		w.Engine().At(20, func() { w.CrashNode(initial[0] + 5) })
		if err := w.Run(40.5); err != nil {
			t.Fatal(err)
		}
		return w.Collector().Summarize("sweep-mode-test", "staggered"), w.Digest()
	}
	wantSum, wantDig := run(radio.EagerNever)
	for _, mode := range []radio.EagerMode{radio.EagerAuto, radio.EagerAlways} {
		gotSum, gotDig := run(mode)
		if !reflect.DeepEqual(gotSum, wantSum) {
			t.Fatalf("mode=%v summary diverged from lazy:\ngot  %+v\nwant %+v", mode, gotSum, wantSum)
		}
		if gotDig != wantDig {
			t.Fatalf("mode=%v digest %x, want %x", mode, gotDig, wantDig)
		}
	}
}
