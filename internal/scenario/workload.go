package scenario

import (
	"math"
	"math/rand"

	"github.com/vanetlab/relroute/internal/netstack"
)

// CBRWorkload wires Options.Flows constant-bit-rate flows between
// distinct random vehicle pairs — the paper's evaluation workload, and
// the default. The flow endpoints, start jitter, and packet schedule
// reproduce the pre-provider builder draw for draw.
//
// When fewer than two vehicles exist at build time but the scenario
// replays a trace (a SUMO export whose vehicles all depart after t=0),
// the flows are wired over the tracks' active windows instead: endpoints
// are picked among track pairs that coexist, addressed by vehicle ID,
// and resolved to nodes at send time once the vehicles have joined.
type CBRWorkload struct{}

// Install implements Workload.
func (CBRWorkload) Install(sc *Scenario, rng *rand.Rand) {
	n := len(sc.Vehicles)
	if n < 2 {
		if len(sc.Tracks) >= 2 {
			installTraceFlows(sc, rng)
		}
		return
	}
	for f := 0; f < sc.Opts.Flows; f++ {
		src := sc.Vehicles[rng.Intn(n)]
		dst := sc.Vehicles[rng.Intn(n)]
		for dst == src {
			dst = sc.Vehicles[rng.Intn(n)]
		}
		start := sc.Opts.WarmUp + rng.Float64()*2
		sc.World.AddFlow(src, dst, start, sc.Opts.FlowInterval, sc.Opts.FlowPackets, sc.Opts.PacketSize)
	}
}

// installTraceFlows wires CBR flows between track pairs whose active
// windows overlap, starting each flow inside the overlap (slightly after
// it opens so both vehicles have joined by the first packet).
func installTraceFlows(sc *Scenario, rng *rand.Rand) {
	tracks := sc.Tracks
	for f := 0; f < sc.Opts.Flows; f++ {
		for try := 0; try < 32; try++ {
			a := rng.Intn(len(tracks))
			b := rng.Intn(len(tracks))
			if a == b {
				continue
			}
			af, al := tracks[a].Span()
			bf, bl := tracks[b].Span()
			lo := math.Max(af, bf)
			hi := math.Min(al, bl)
			if hi-lo < 1 {
				continue // need the pair to coexist for at least a second
			}
			start := lo + 0.2 + rng.Float64()*(hi-lo)/2
			sc.World.AddVehicleFlow(tracks[a].ID, tracks[b].ID, start,
				sc.Opts.FlowInterval, sc.Opts.FlowPackets, sc.Opts.PacketSize)
			break
		}
	}
}

// BurstWorkload models bursty emergency broadcast: at WarmUp + 2 s,
// burstSources vehicles raise the alarm, and each fans a train of
// Options.FlowPackets packets, burstGap apart, out to burstFanout
// destinations at once — a sudden synchronized load spike on top of an
// otherwise idle network, the accident-notification pattern safety
// messaging papers stress.
type BurstWorkload struct{}

const (
	burstSources = 2    // vehicles raising the alarm
	burstFanout  = 3    // destinations per source
	burstGap     = 0.05 // packet spacing within a train, s
)

// Install implements Workload.
func (BurstWorkload) Install(sc *Scenario, rng *rand.Rand) {
	n := len(sc.Vehicles)
	if n < 2 {
		return
	}
	at := sc.Opts.WarmUp + 2
	fanout := min(burstFanout, n-1)
	for s := 0; s < burstSources; s++ {
		src := sc.Vehicles[rng.Intn(n)]
		for f := 0; f < fanout; f++ {
			dst := sc.Vehicles[rng.Intn(n)]
			for dst == src {
				dst = sc.Vehicles[rng.Intn(n)]
			}
			sc.World.AddFlow(src, dst, at, burstGap, sc.Opts.FlowPackets, sc.Opts.PacketSize)
		}
	}
}

// V2IWorkload models vehicle-to-infrastructure request/response: v2iServers
// static roadside servers (running the scenario's own protocol stack)
// spread along the network, and Options.Flows vehicle clients exchanging
// small requests for larger responses with them — the
// traffic-information-service pattern of Sec. V, where reachability of
// fixed infrastructure is what matters. Each client sends
// Options.FlowPackets requests, Options.FlowInterval apart.
type V2IWorkload struct{}

// v2iServers is the roadside server count of a V2IWorkload.
const v2iServers = 2

// RequestSize is the fixed V2I request payload in bytes; responses use
// Options.PacketSize.
const RequestSize = 64

// Install implements Workload: it places the servers as RSU-kind static
// nodes and wires, per client, a request flow to its server and the
// server's response flow back, offset by half an interval.
func (V2IWorkload) Install(sc *Scenario, rng *rand.Rand) {
	ids := make([]netstack.NodeID, 0, v2iServers)
	for _, p := range rsuPositions(sc.Net, v2iServers) {
		id := sc.World.AddStaticNode(netstack.RSU, p, sc.factory())
		ids = append(ids, id)
	}
	sc.RSUs = append(sc.RSUs, ids...)

	n := len(sc.Vehicles)
	if n == 0 {
		return
	}
	interval, requests := sc.Opts.FlowInterval, sc.Opts.FlowPackets
	for c := 0; c < sc.Opts.Flows; c++ {
		v := sc.Vehicles[rng.Intn(n)]
		srv := ids[c%len(ids)]
		start := sc.Opts.WarmUp + rng.Float64()*2
		sc.World.AddFlow(v, srv, start, interval, requests, RequestSize)
		sc.World.AddFlow(srv, v, start+interval/2, interval, requests, sc.Opts.PacketSize)
	}
}

// Workloads composes several workloads into one (e.g. CBR background plus
// an emergency burst).
type Workloads []Workload

// Install implements Workload.
func (ws Workloads) Install(sc *Scenario, rng *rand.Rand) {
	for _, w := range ws {
		w.Install(sc, rng)
	}
}
