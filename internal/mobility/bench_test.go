package mobility

import (
	"math/rand"
	"testing"

	"github.com/vanetlab/relroute/internal/roadnet"
)

func benchModel(b *testing.B, vehicles int) *RoadModel {
	b.Helper()
	net, eb, wb, err := roadnet.Highway(2000, 2, 33)
	if err != nil {
		b.Fatal(err)
	}
	m := NewRoadModel(net, rand.New(rand.NewSource(1)))
	for i := 0; i < vehicles; i++ {
		seg := eb
		if i%2 == 1 {
			seg = wb
		}
		m.AddVehicle(seg, i%2, float64(i)*7, DefaultIDM(30), Car)
	}
	return m
}

// BenchmarkAdvance measures one IDM mobility tick for 200 vehicles.
func BenchmarkAdvance(b *testing.B) {
	m := benchModel(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m.Advance(0.1)
	}
}

// BenchmarkStates measures the per-tick kinematic snapshot the network
// stack polls (200 vehicles).
func BenchmarkStates(b *testing.B) {
	m := benchModel(b, 200)
	m.Advance(0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if len(m.StatesInto(nil)) == 0 {
			b.Fatal("no states")
		}
	}
}
