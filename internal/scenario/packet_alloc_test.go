package scenario

import (
	"runtime"
	"strings"
	"testing"
)

// packetPathObjects runs a quick Greedy highway with packets per flow and
// counts the objects its run allocates on the packet path: under a router
// or the stack's packet pool, but not in the collector, which records each
// delivery by design. It reads the runtime's allocation profile at a
// sampling rate of one, so every object is seen with its stack.
func packetPathObjects(t *testing.T, packets int) (objects int64, delivered int) {
	t.Helper()
	sc, err := Build("Greedy", Options{Seed: 1, Vehicles: 60, HighwayLength: 1500, Duration: 30, Flows: 4, FlowPackets: packets})
	if err != nil {
		t.Fatal(err)
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	runtime.GC()
	before := packetPathProfile()
	if _, err := sc.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	for stack, n := range packetPathProfile() {
		objects += n - before[stack]
	}
	return objects, sc.World.Collector().DataDelivered
}

// packetPathProfile reads the allocation profile's packet-path stacks.
func packetPathProfile() map[string]int64 {
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+256)
	n, _ = runtime.MemProfile(recs, true)
	out := make(map[string]int64)
	for i := range recs[:n] {
		var key strings.Builder
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			fr, more := frames.Next()
			key.WriteString(fr.Function)
			key.WriteByte(';')
			if !more {
				break
			}
		}
		s := key.String()
		if (strings.Contains(s, "/internal/routing.") || strings.Contains(s, "netstack.(*World).getPacket")) &&
			!strings.Contains(s, "/internal/metrics.") {
			out[s] += recs[i].AllocObjects
		}
	}
	return out
}

// TestCarrierPacketsComeFromThePool pins the store-carry-forward data
// path: Greedy originates on a pooled packet, forwards with SendFinal and
// releases at delivery, so ten times the packets allocate no more objects
// on the packet path than the pool's warm-up. Greedy sending with Send, or
// building packets with new, costs objects per packet and hop.
func TestCarrierPacketsComeFromThePool(t *testing.T) {
	few, fewDelivered := packetPathObjects(t, 4)
	many, manyDelivered := packetPathObjects(t, 40)
	t.Logf("packet-path objects: %d for %d deliveries, %d for %d", few, fewDelivered, many, manyDelivered)
	if fewDelivered == 0 || manyDelivered < 8*fewDelivered {
		t.Fatalf("delivered %d and %d packets: the highway does not carry the flows", fewDelivered, manyDelivered)
	}
	if many != few {
		t.Fatalf("40 packets per flow allocate %d objects on the packet path and 4 allocate %d; want the same", many, few)
	}
}
