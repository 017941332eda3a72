package scenario

import (
	"runtime"
	"testing"

	"github.com/vanetlab/relroute/internal/channel"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/netstack"
)

func quickOpts() Options {
	return Options{
		Seed: 1, Vehicles: 30, HighwayLength: 1200,
		Duration: 20, Flows: 2, FlowPackets: 5,
	}
}

func TestBuildAllProtocols(t *testing.T) {
	for _, proto := range Protocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			opts := quickOpts()
			if proto == "DRR" {
				opts.RSUs = 2
			}
			if proto == "Bus" {
				opts.Buses = 2
			}
			sc, err := Build(proto, opts)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if sum.DataSent == 0 {
				t.Fatal("no traffic generated")
			}
			if sum.Protocol != proto {
				t.Fatalf("summary labelled %q", sum.Protocol)
			}
		})
	}
}

func TestUnknownProtocol(t *testing.T) {
	if _, err := Build("NoSuchProto", quickOpts()); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() metrics.Summary {
		sum, err := RunProtocol("AODV", quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("equal seeds diverged:\n%+v\n%+v", a, b)
	}
	opts := quickOpts()
	opts.Seed = 99
	c, err := RunProtocol("AODV", opts)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds produced identical summaries")
	}
}

func TestTopologyKinds(t *testing.T) {
	for _, kind := range []Kind{HighwayKind, CityKind, RingKind} {
		opts := quickOpts()
		opts.Kind = kind
		sum, err := RunProtocol("Greedy", opts)
		if err != nil {
			t.Fatalf("kind %v: %v", kind, err)
		}
		if sum.DataSent == 0 {
			t.Fatalf("kind %v: no traffic", kind)
		}
	}
}

func TestDRRPlacesRSUs(t *testing.T) {
	opts := quickOpts()
	opts.RSUs = 3
	sc, err := Build("DRR", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.RSUs) != 3 {
		t.Fatalf("placed %d RSUs", len(sc.RSUs))
	}
	// DRR defaults RSUs when none requested
	sc2, err := Build("DRR", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(sc2.RSUs) == 0 {
		t.Fatal("DRR built without any RSUs")
	}
}

func TestNonInfraProtocolsOmitRSUs(t *testing.T) {
	opts := quickOpts()
	opts.RSUs = 3 // requested but meaningless for AODV
	sc, err := Build("AODV", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.RSUs) != 0 {
		t.Fatalf("AODV scenario placed %d RSUs", len(sc.RSUs))
	}
}

// TestOnlyDRRPlacesRSUs asks every protocol for three RSUs on the default
// highway: DRR places them, and every other protocol builds a world with
// no RSU node at all.
func TestOnlyDRRPlacesRSUs(t *testing.T) {
	for _, proto := range Protocols() {
		sc, err := Build(proto, Options{RSUs: 3})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		want := 0
		if proto == "DRR" {
			want = 3
		}
		if len(sc.RSUs) != want {
			t.Errorf("%s placed %d RSUs, want %d", proto, len(sc.RSUs), want)
		}
		if got := len(sc.World.NodeIDs(netstack.RSU)); got != want {
			t.Errorf("%s world holds %d RSU nodes, want %d", proto, got, want)
		}
	}
}

func TestShadowingChannelOption(t *testing.T) {
	opts := quickOpts()
	opts.Shadowing = true
	sc, err := Build("Greedy", opts)
	if err != nil {
		t.Fatal(err)
	}
	got := sc.World.Channel().MeanRange()
	// quickOpts leaves Range defaulted to 250; the shadowing channel is
	// calibrated so its median range matches that
	if got < 200 || got > 300 {
		t.Fatalf("shadowing median range = %v, want ≈250", got)
	}
	if _, err := sc.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestShadowingMeanRangeIsTheCalibratedMedian(t *testing.T) {
	for _, r := range []float64{100, 250, 500} {
		m := channelReceiptFor(r)
		if got, want := channel.NewShadowing(m).MeanRange(), m.MedianRange(); got != want {
			t.Errorf("range %v: MeanRange = %v, MedianRange = %v", r, got, want)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	var o Options
	o.setDefaults()
	if o.Vehicles != 60 || o.Duration != 60 || o.Range != 250 || o.Kind != HighwayKind {
		t.Fatalf("defaults = %+v", o)
	}
}

// TestShardsOptionIsInert fails if Options.Shards ever becomes live again:
// it is accepted for old journals, snapshots and bench/, and ignored. Any
// value must give the same summary and world digest, and neither building
// nor running a scenario may start a goroutine (sampled after Build,
// mid-run from an engine event, and after Run).
func TestShardsOptionIsInert(t *testing.T) {
	worlds := []struct {
		name, proto string
		opts        Options
	}{
		{"highway", "Greedy", quickOpts()},
		{"churn", "TBP-SS", Options{Seed: 42, Vehicles: 30, Duration: 20, Flows: 3, FlowPackets: 12, ArrivalRate: 0.5, MeanLifetime: 15}},
	}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			type outcome struct {
				sum    metrics.Summary
				digest uint64
			}
			var want outcome
			for _, shards := range []int{0, 1, 4} {
				opts := w.opts
				opts.Shards = shards
				before := runtime.NumGoroutine()
				sc, err := Build(w.proto, opts)
				if err != nil {
					t.Fatal(err)
				}
				peak := runtime.NumGoroutine()
				sc.World.Engine().At(opts.Duration/2, func() { peak = max(peak, runtime.NumGoroutine()) })
				sum, err := sc.Run()
				if err != nil {
					t.Fatal(err)
				}
				if peak = max(peak, runtime.NumGoroutine()); peak > before {
					t.Errorf("Shards=%d: goroutines grew from %d to %d", shards, before, peak)
				}
				if sum.DataDelivered == 0 {
					t.Fatalf("Shards=%d: nothing delivered: %+v", shards, sum)
				}
				if got := (outcome{sum, sc.World.Digest()}); shards == 0 {
					want = got
				} else if got != want {
					t.Errorf("Shards=%d differs from Shards=0:\ngot  %+v\nwant %+v", shards, got, want)
				}
			}
		})
	}
}
