package relroute_test

// Benchmarks regenerating every figure and table of the paper (one bench
// per artifact; `vanetbench -list` is the index), the ablations backing
// Table I's qualitative claims, and micro-benchmarks of the simulator's
// hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// They are for measuring while you work. How fast the simulator is, and
// whether a change made it slower, is bench/'s job (bash bench/run.sh).
//
// The experiment benches execute in Quick mode inside the timing loop and
// report headline metrics (PDR, collision rate, ...) via b.ReportMetric so
// the "who wins where" shape is visible straight from the bench output.

import (
	"testing"

	"github.com/vanetlab/relroute"
	"github.com/vanetlab/relroute/internal/core"
	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/prob"
	"github.com/vanetlab/relroute/internal/sim"
)

// benchExperiment runs one harness experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := relroute.RunExperiment(id, relroute.ExperimentConfig{Seed: 1, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", id)
		}
	}
}

// BenchmarkFig1Taxonomy regenerates Fig. 1 (the protocol taxonomy).
func BenchmarkFig1Taxonomy(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2Discovery regenerates Fig. 2 (RREQ flood / RREP unicast).
func BenchmarkFig2Discovery(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3LinkLifetime regenerates Fig. 3 (Eqn 1-4 lifetimes).
func BenchmarkFig3LinkLifetime(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4Direction regenerates Fig. 4 (direction decomposition).
func BenchmarkFig4Direction(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5RSU regenerates Fig. 5 (RSU-assisted sparse delivery).
func BenchmarkFig5RSU(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6Zones regenerates Fig. 6 (zone/gateway suppression).
func BenchmarkFig6Zones(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkTable1Summary regenerates Table I (category pros/cons matrix).
func BenchmarkTable1Summary(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkAblationBroadcastStorm regenerates E-A1.
func BenchmarkAblationBroadcastStorm(b *testing.B) { benchExperiment(b, "abl-storm") }

// BenchmarkAblationMobilityRegimes regenerates E-A2.
func BenchmarkAblationMobilityRegimes(b *testing.B) { benchExperiment(b, "abl-regimes") }

// BenchmarkAblationPathLifetime regenerates E-A3.
func BenchmarkAblationPathLifetime(b *testing.B) { benchExperiment(b, "abl-lifetime") }

// BenchmarkAblationProbVsGeo regenerates E-A4.
func BenchmarkAblationProbVsGeo(b *testing.B) { benchExperiment(b, "abl-probvsgeo") }

// BenchmarkAblationTickets regenerates E-A5.
func BenchmarkAblationTickets(b *testing.B) { benchExperiment(b, "abl-tickets") }

// BenchmarkAblationHybrid regenerates E-A6 (the Sec. VIII hybrid).
func BenchmarkAblationHybrid(b *testing.B) { benchExperiment(b, "abl-hybrid") }

// BenchmarkAblationDisaster regenerates E-A7 (Sec. V-A infrastructure loss).
func BenchmarkAblationDisaster(b *testing.B) { benchExperiment(b, "abl-disaster") }

// BenchmarkProtocolHighway measures full-stack simulation throughput per
// protocol on the reference highway run, reporting PDR alongside time.
func BenchmarkProtocolHighway(b *testing.B) {
	for _, proto := range relroute.Protocols() {
		b.Run(proto, func(b *testing.B) {
			var pdr float64
			for i := 0; i < b.N; i++ {
				opts := relroute.Options{
					Seed: 1, Vehicles: 50, HighwayLength: 1500,
					Duration: 30, Flows: 3, FlowPackets: 10,
				}
				if proto == "DRR" {
					opts.RSUs = 2
				}
				if proto == "Bus" {
					opts.Buses = 3
				}
				sum, err := relroute.Run(proto, opts)
				if err != nil {
					b.Fatal(err)
				}
				pdr = sum.PDR
			}
			b.ReportMetric(pdr, "PDR")
		})
	}
}

// BenchmarkLinkLifetime measures the Eqn (4) closed-form solver.
func BenchmarkLinkLifetime(b *testing.B) {
	i := link.Kinematics1D{X: -100, V: 33, A: 0.5}
	j := link.Kinematics1D{X: 0, V: 25, A: -0.2}
	var s float64
	for n := 0; n < b.N; n++ {
		s += link.Lifetime(i, j, 250, 40)
	}
	_ = s
}

// BenchmarkLinkStability measures the probability-model stability metric
// (numeric integration over the relative-speed distribution) that TBP-SS
// evaluates per candidate next hop.
func BenchmarkLinkStability(b *testing.B) {
	var s float64
	for n := 0; n < b.N; n++ {
		s += core.LinkStability(core.MetricMeanDuration, core.StabilityParams{},
			relroute.V(0, 0), relroute.V(30, 0),
			relroute.V(120, 3), relroute.V(25, 0), 250)
	}
	_ = s
}

// BenchmarkReceiptProb measures REAR's RSSI→probability mapping.
func BenchmarkReceiptProb(b *testing.B) {
	m := prob.DefaultReceiptModel()
	var s float64
	for n := 0; n < b.N; n++ {
		s += m.Prob(float64(n%400) + 1)
	}
	_ = s
}

// BenchmarkEngine measures raw event throughput of the simulation core.
func BenchmarkEngine(b *testing.B) {
	eng := sim.NewEngine(1)
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		eng.After(0.001, reschedule)
	}
	eng.After(0, reschedule)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := eng.Run(float64(n+1) * 0.5); err != nil {
			b.Fatal(err)
		}
	}
	if count == 0 {
		b.Fatal("no events ran")
	}
}
