package netstack

import (
	"runtime"
	"strings"
	"testing"

	"github.com/vanetlab/relroute/internal/mobility"
)

// runWindowObjects builds a beaconing world of n stationary vehicles 40 m
// apart, so each hears about a dozen others whatever n is, and counts the
// objects StartRun and the first simulated second allocate outside the link
// tables (internal/linkstate, whose growth is per link by design). The
// nodes' random streams are taken before, as a router's Attach would. It
// reads the runtime's allocation profile at a sampling rate of one, so
// every object is seen with its stack.
func runWindowObjects(t *testing.T, n int) (objects int64, beacons int) {
	t.Helper()
	w := NewWorld(Config{Seed: 1}, mobility.NewPlayback(lineTracks(n, 40, 0)))
	var routers []*countingRouter
	w.AddVehicleNodes(func() Router {
		r := &countingRouter{}
		routers = append(routers, r)
		return r
	})
	// A router that draws in Attach materializes its node's stream at
	// build time; do that here, so the window holds StartRun's own work.
	for _, nd := range w.nodes {
		nd.random()
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	runtime.GC()
	before := allocsByStack()
	w.StartRun()
	if err := w.AdvanceTo(1); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	for key, a := range allocsByStack() {
		if d := a.objects - before[key].objects; d > 0 && a.inWindow {
			objects += d
		}
	}
	for _, r := range routers {
		beacons += r.beacons
	}
	return objects, beacons
}

type stackAllocs struct {
	objects  int64
	inWindow bool // under StartRun or AdvanceTo, and not in internal/linkstate
}

// allocsByStack reads the allocation profile, keyed by call stack.
func allocsByStack() map[string]stackAllocs {
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+256)
	n, _ = runtime.MemProfile(recs, true)
	out := make(map[string]stackAllocs, n)
	for i := range recs[:n] {
		stk := recs[i].Stack()
		var key strings.Builder
		window, linkstate := false, false
		frames := runtime.CallersFrames(stk)
		for {
			fr, more := frames.Next()
			key.WriteString(fr.Function)
			key.WriteByte(';')
			window = window || strings.HasSuffix(fr.Function, "netstack.(*World).StartRun") ||
				strings.HasSuffix(fr.Function, "netstack.(*World).AdvanceTo")
			linkstate = linkstate || strings.Contains(fr.Function, "/internal/linkstate.")
			if !more {
				break
			}
		}
		a := out[key.String()]
		a.objects += recs[i].AllocObjects
		a.inWindow = window && !linkstate
		out[key.String()] = a
	}
	return out
}

// TestStartRunAllocsDoNotGrowWithNodes pins the per-node set-up of a run:
// every node's beacon ticker is a handler event, its MAC sender state comes
// out of a shared chunk and its reception records out of the layer's free
// list. Ten times the nodes may cost only what a dozen slices sized by
// node count need to double and one MAC chunk per 256 senders — about 80
// objects — where a per-node object would cost 1,800 (eight per node
// before handler events, chunked sender state and pooled records).
func TestStartRunAllocsDoNotGrowWithNodes(t *testing.T) {
	small, smallBeacons := runWindowObjects(t, 200)
	large, largeBeacons := runWindowObjects(t, 2000)
	if smallBeacons < 200*10 || largeBeacons < 2000*10 {
		t.Fatalf("heard %d and %d beacons; each node should hear about a dozen", smallBeacons, largeBeacons)
	}
	t.Logf("StartRun + 1 sim-s outside the link tables: %d objects at 200 nodes, %d at 2,000", small, large)
	if extra := (2000 - 200) / 16; large-small > int64(extra) {
		t.Fatalf("2,000 nodes allocate %d objects more than 200 nodes; want at most %d, one per 16 extra nodes", large-small, extra)
	}
}
