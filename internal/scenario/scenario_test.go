package scenario

import (
	"reflect"
	"testing"

	"github.com/vanetlab/relroute/internal/channel"
	"github.com/vanetlab/relroute/internal/metrics"
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
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("equal seeds diverged:\n%+v\n%+v", a, b)
	}
	opts := quickOpts()
	opts.Seed = 99
	c, err := RunProtocol("AODV", opts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
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
