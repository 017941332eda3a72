package faults_test

import (
	"testing"
	"time"

	"github.com/vanetlab/relroute/internal/faults"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/scenario"
)

// fuzzSeconds is how long each fuzzed schedule runs.
const fuzzSeconds = 2

// FuzzFaultSpec installs a fuzzed two-event schedule on a small DRR
// highway (eight vehicles, two RSUs, two flows) and runs it for 2 sim-s.
// Each event's kind is any byte mod 8 (0 and 7 are not kinds), its node
// list one fuzzed ID, and two fuzzed numbers a and b fill the rest: the
// cut at x = a, the jam zone [a, a+b] × [−b, b], and b as both its loss
// and the suppression probability. Install may refuse a schedule; one it
// accepts must run to the end without a panic or a hang, with no more
// recoveries than crashes and no more fault time than the run.
func FuzzFaultSpec(f *testing.F) {
	f.Add(uint8(faults.NodeCrash), 0.5, 1.5, 0.0, 0.0, int32(0),
		uint8(faults.Partition), 0.2, 1.8, 500.0, 0.0, int32(0))
	f.Add(uint8(faults.RSUBlackout), 0.1, 0.0, 0.0, 0.0, int32(0),
		uint8(faults.NodeRecover), 1.0, 0.0, 0.0, 0.0, int32(9))
	f.Add(uint8(faults.JamZone), 0.0, 1.0, 200.0, 0.5, int32(0),
		uint8(faults.BeaconSuppression), 0.5, 0.0, 0.0, 0.9, int32(0))
	f.Add(uint8(faults.NodeCrash), -1.0, 9.0, 0.0, 0.0, int32(-3),
		uint8(faults.JamZone), 1.5, 0.5, 0.0, -1.0, int32(0))
	f.Fuzz(func(t *testing.T, k1 uint8, at1, until1, a1, b1 float64, n1 int32,
		k2 uint8, at2, until2, a2, b2 float64, n2 int32) {
		event := func(k uint8, at, until, a, b float64, n int32) faults.Event {
			return faults.Event{
				Kind: faults.Kind(k % 8), At: at, Until: until,
				Nodes:  []netstack.NodeID{netstack.NodeID(n)},
				Region: geom.NewRect(geom.V(a, -b), geom.V(a+b, b)),
				Loss:   b, Prob: b, CutX: a,
			}
		}
		spec := faults.Spec{Events: []faults.Event{
			event(k1, at1, until1, a1, b1, n1), event(k2, at2, until2, a2, b2, n2),
		}}
		sc, err := scenario.Build("DRR", scenario.Options{
			Seed: 1, Vehicles: 8, HighwayLength: 1000, Duration: fuzzSeconds,
			Flows: 2, FlowPackets: 4, RSUs: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := faults.Install(sc.World, spec, fuzzSeconds); err != nil {
			return
		}
		hung := time.AfterFunc(10*time.Second, sc.World.Engine().Interrupt)
		_, err = sc.Run()
		hung.Stop()
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		col := sc.World.Collector()
		if col.FaultRecoveries > col.FaultCrashes {
			t.Errorf("%+v: %d recoveries after %d crashes", spec, col.FaultRecoveries, col.FaultCrashes)
		}
		if !(col.FaultTime >= 0 && col.FaultTime <= fuzzSeconds) {
			t.Errorf("%+v: fault time %v in a %d s run", spec, col.FaultTime, fuzzSeconds)
		}
	})
}
