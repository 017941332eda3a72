package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateProtocolGolden = flag.Bool("update-protocol-golden", false,
	"rewrite testdata/golden_protocols.txt (only for an INTENTIONAL behaviour change)")

// TestProtocolGolden pins every runnable protocol, not only the ones an
// experiment table happens to print: one line per protocol and seed —
// world digest plus the packet-conservation counters — on the default
// 60-vehicle highway for 20 simulated seconds. That world never strands a
// packet, so the carry-and-forward routers run a second time on a sparse
// highway (24 vehicles on 3000 m, 40 s: 12–21 of 40 packets arrive) where
// the carry buffer, its timeout and the retry order decide the line. Nor
// does it ever run a flood out of hops, so the four flooders run a third
// time on a highway longer than DefaultTTL reaches (300 vehicles on 12 km,
// 20 s): Flooding, Biswas and Zone count 57–232 TTL drops a seed,
// LORA-DCBF 2 on seed 1, Biswas gives up on 6 and 10 unacknowledged
// rebroadcasts at the ends, and what a node outside the zone or a
// non-gateway does with its copy shows in the digest. And none of the three
// runs the log-normal shadowing channel, so ten protocols run a fourth
// time on a shadowed city grid (60 vehicles, 20 s): Flooding makes the most
// reception draws, Greedy and REAR read per-beacon RSSI, PBR and Taleb
// predict path lifetimes over links that come and go with the draws, and
// TBP-SS, Yan-TBP, NiuDe, GVGrid and Hybrid run the Sec. VII link-duration
// integrals over them — a change to the channel or the radio cache that
// moves one verdict or one RNG stream position moves these digests, and so
// does a change to which integrals those routers skip. The two road-graph
// routers, CAR and GVGrid, run again on the same 400 m grid without
// shadowing: a street there is longer than radio range, so CAR's Sec. VII-B
// segment-connectivity metric decides its routes (30–46 % of packets
// arrive). The three ticket routers run again on the default highway with
// one ticket and with eight, where the candidate ranking decides the most
// and the least. Last, AODV
// runs on each named preset that brings its own topology, traffic or
// workload (ring, highway-churn, city-rush, emergency, v2i), so a change to
// a provider moves its rows; on city-rush, where predicted routes expire,
// break under churn and are renewed, so do PBR, Taleb, NiuDe and TBP-SS. A
// refactor of router scaffolding or of a provider must leave
// testdata/golden_protocols.txt untouched. Not skipped in -short: 114 runs
// take about 2 s, and they are the only place every router runs under the
// race detector.
func TestProtocolGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden_protocols.txt")
	want := map[string]string{}
	if !*updateProtocolGolden {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update-protocol-golden to create): %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			f := strings.Fields(line)
			want[f[0]+" "+f[1]] = line
		}
	}
	type world struct {
		label  string // line prefix; "" is the default world
		protos []string
		opts   Options
	}
	worlds := []world{
		{protos: Protocols(), opts: Options{Duration: 20}},
		{
			label:  "sparse/",
			protos: []string{"Greedy", "REAR", "GVGrid", "CAR", "DRR", "Bus"},
			opts:   Options{Vehicles: 24, HighwayLength: 3000, Duration: 40, Flows: 4, FlowPackets: 10},
		},
		{
			label:  "storm/",
			protos: []string{"Flooding", "Biswas", "Zone", "LORA-DCBF"},
			opts:   Options{Vehicles: 300, HighwayLength: 12000, Duration: 20, Flows: 4, FlowPackets: 10},
		},
		{
			label:  "shadow/",
			protos: []string{"Flooding", "Greedy", "REAR", "PBR", "Taleb", "TBP-SS", "Yan-TBP", "NiuDe", "GVGrid", "Hybrid"},
			opts:   Options{Kind: CityKind, Shadowing: true, Duration: 20},
		},
		{
			label:  "city/",
			protos: []string{"CAR", "GVGrid"},
			opts:   Options{Kind: CityKind, Duration: 20},
		},
		{
			label:  "tickets1/",
			protos: []string{"TBP-SS", "Yan-TBP", "Hybrid"},
			opts:   Options{Duration: 20, TicketBudget: 1},
		},
		{
			label:  "tickets8/",
			protos: []string{"TBP-SS", "Yan-TBP", "Hybrid"},
			opts:   Options{Duration: 20, TicketBudget: 8},
		},
	}
	// The named presets with a provider of their own (a ring, open traffic,
	// a burst or V2I workload) run once each under AODV, labelled with the
	// preset's name; city-rush also under the lifetime-predicting on-demand
	// routers.
	for _, preset := range []string{"ring", "highway-churn", "city-rush", "emergency", "v2i"} {
		protos := []string{"AODV"}
		if preset == "city-rush" {
			protos = append(protos, "PBR", "Taleb", "NiuDe", "TBP-SS")
		}
		worlds = append(worlds, world{label: preset + "/", protos: protos, opts: Options{Scenario: preset, Duration: 20}})
	}
	var out strings.Builder
	for _, wd := range worlds {
		for _, proto := range wd.protos {
			for _, seed := range []int64{1, 2} {
				opts := wd.opts
				opts.Seed = seed
				switch proto {
				case "Bus":
					opts.Buses = 3
				case "DRR":
					opts.RSUs = 2
				}
				sc, err := Build(proto, opts)
				if err != nil {
					t.Fatal(err)
				}
				sum, err := sc.Run()
				if err != nil {
					t.Fatal(err)
				}
				line := fmt.Sprintf("%s%s %d %#016x %d %d %d %d", wd.label, proto, seed, sc.World.Digest(),
					sum.DataSent, sum.DataDelivered, sc.World.Collector().DataDropped, sum.ControlTotal)
				out.WriteString(line + "\n")
				if *updateProtocolGolden {
					continue
				}
				if w := want[fmt.Sprintf("%s%s %d", wd.label, proto, seed)]; line != w {
					t.Errorf("diverged from the golden capture:\n got %s\nwant %s", line, w)
				}
			}
		}
	}
	if *updateProtocolGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
