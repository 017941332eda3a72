package scenario

import (
	"runtime"
	"strings"
	"testing"

	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/netstack"
)

// packetPathObjects runs a quick highway of proto with packets per flow and
// counts the objects its run allocates on the packet path, in the stacks
// onPath accepts: function names, the allocating function first. It reads
// the runtime's allocation profile at a sampling rate of one, so every
// object is seen with its stack. It returns the run's collector too.
func packetPathObjects(t *testing.T, proto string, packets int, onPath func(stack []string) bool) (objects int64, c *metrics.Collector) {
	t.Helper()
	sc, err := Build(proto, Options{Seed: 1, Vehicles: 60, HighwayLength: 1500, Duration: 30, Flows: 4, FlowPackets: packets})
	if err != nil {
		t.Fatal(err)
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	runtime.GC()
	before := packetPathProfile(onPath)
	if _, err := sc.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	for stack, n := range packetPathProfile(onPath) {
		objects += n - before[stack]
	}
	return objects, sc.World.Collector()
}

// packetPathProfile reads the allocation profile's packet-path stacks.
func packetPathProfile(onPath func(stack []string) bool) map[string]int64 {
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+256)
	n, _ = runtime.MemProfile(recs, true)
	out := make(map[string]int64)
	for i := range recs[:n] {
		var stack []string
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			fr, more := frames.Next()
			stack = append(stack, fr.Function)
			if !more {
				break
			}
		}
		if onPath(stack) {
			out[strings.Join(stack, ";")] += recs[i].AllocObjects
		}
	}
	return out
}

// fromThePool reports whether the stack allocates a packet for the pool.
func fromThePool(stack []string) bool {
	return strings.HasSuffix(stack[0], "netstack.(*World).getPacket")
}

// TestCarrierPacketsComeFromThePool pins the store-carry-forward data
// path: Greedy originates on a pooled packet, forwards it and releases it
// at delivery, so ten times the packets allocate no more objects
// under its routers and the packet pool than the pool's warm-up — the
// collector, which records each delivery by design, left out. Greedy
// building packets with new costs objects per packet and hop.
func TestCarrierPacketsComeFromThePool(t *testing.T) {
	underRouting := func(stack []string) bool {
		s := strings.Join(stack, ";")
		return (strings.Contains(s, "/internal/routing.") || fromThePool(stack)) &&
			!strings.Contains(s, "/internal/metrics.")
	}
	few, fewRun := packetPathObjects(t, "Greedy", 4, underRouting)
	many, manyRun := packetPathObjects(t, "Greedy", 40, underRouting)
	fewDelivered, manyDelivered := fewRun.DataDelivered, manyRun.DataDelivered
	t.Logf("packet-path objects: %d for %d deliveries, %d for %d", few, fewDelivered, many, manyDelivered)
	if fewDelivered == 0 || manyDelivered < 8*fewDelivered {
		t.Fatalf("delivered %d and %d packets: the highway does not carry the flows", fewDelivered, manyDelivered)
	}
	if many != few {
		t.Fatalf("40 packets per flow allocate %d objects on the packet path and 4 allocate %d; want the same", many, few)
	}
}

// TestSourceRoutedPacketsComeFromThePool pins TBP-SS's data path: every
// packet comes from the stack's pool — data, and the probes, replies and
// break notices of the discoveries beside it — and a data packet hops on
// the header its route shares, and is handed back at delivery or drop. So
// 40 packets per flow allocate the same packets, and the same objects in
// the source-route data plane, as 4 do. (Discoveries are not pinned: longer
// flows renew their routes more often.) A boxed header per hop, a copied
// route per packet, or a packet kept after its forward costs objects per
// packet and hop.
func TestSourceRoutedPacketsComeFromThePool(t *testing.T) {
	dataPath := func(stack []string) bool {
		return fromThePool(stack) || strings.HasSuffix(stack[0], "routing.SendSourceRouted") ||
			strings.HasSuffix(stack[0], "routing.ForwardSourceRouted")
	}
	few, fewRun := packetPathObjects(t, "TBP-SS", 4, dataPath)
	many, manyRun := packetPathObjects(t, "TBP-SS", 40, dataPath)
	fewDelivered, manyDelivered := fewRun.DataDelivered, manyRun.DataDelivered
	t.Logf("data-path objects: %d for %d deliveries, %d for %d", few, fewDelivered, many, manyDelivered)
	if fewDelivered == 0 || manyDelivered < 8*fewDelivered {
		t.Fatalf("delivered %d and %d packets: the highway does not carry the flows", fewDelivered, manyDelivered)
	}
	if many != few {
		t.Fatalf("40 packets per flow allocate %d objects on the data path and 4 allocate %d; want the same", many, few)
	}
}

// TestProbeRecordsComeFromOriginsAndSplits pins TBP-SS's probe plane: an
// origin makes one probe record per ticket share, and a relay appends
// itself to the record it was handed and sends packet and record on, so
// only the extra shares of a ticket split make another. The objects
// handleProbe and Request allocate are those records: fewer than the
// probes sent, since most probes are sent on by a relay, and as many with
// 40 packets per flow as with 4. A path copied or a payload boxed per hop
// costs objects per probe sent.
func TestProbeRecordsComeFromOriginsAndSplits(t *testing.T) {
	probePlane := func(stack []string) bool {
		return strings.HasSuffix(stack[0], "core.(*TicketRouter).handleProbe") ||
			strings.HasSuffix(stack[0], "core.(*TicketRouter).Request")
	}
	few, fewRun := packetPathObjects(t, "TBP-SS", 4, probePlane)
	many, manyRun := packetPathObjects(t, "TBP-SS", 40, probePlane)
	probes := manyRun.Control[netstack.KindProbe]
	t.Logf("probe-plane objects: %d for %d deliveries, %d for %d and %d probes sent",
		few, fewRun.DataDelivered, many, manyRun.DataDelivered, probes)
	if fewRun.DataDelivered == 0 || manyRun.DataDelivered < 8*fewRun.DataDelivered || manyRun.RouteDiscoveries == 0 {
		t.Fatalf("delivered %d and %d packets after %d discoveries: the highway does not carry the flows",
			fewRun.DataDelivered, manyRun.DataDelivered, manyRun.RouteDiscoveries)
	}
	if many > few {
		t.Fatalf("40 packets per flow allocate %d objects on the probe plane and 4 allocate %d; want no more", many, few)
	}
	if many >= int64(probes) {
		t.Fatalf("the probe plane allocates %d objects for %d probes sent; a relay must send on the record it was handed", many, probes)
	}
}
