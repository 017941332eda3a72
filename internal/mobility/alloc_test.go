package mobility

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/roadnet"
)

// StatesInto with a pre-sized buffer must not allocate — it is called once
// per mobility tick by the network stack.
func TestStatesIntoAllocFree(t *testing.T) {
	net, eb, wb, err := roadnet.Highway(2000, 2, 33)
	if err != nil {
		t.Fatal(err)
	}
	m := NewRoadModel(net, rand.New(rand.NewSource(1)))
	for i := 0; i < 100; i++ {
		seg := eb
		if i%2 == 1 {
			seg = wb
		}
		m.AddVehicle(seg, i%2, float64(i)*15, DefaultIDM(30), Car)
	}
	m.Advance(0.1)
	buf := make([]State, 0, 128)
	allocs := testing.AllocsPerRun(100, func() {
		buf = m.StatesInto(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("StatesInto allocates %.1f objects/op with a pre-sized buffer, want 0", allocs)
	}
	if len(buf) != 100 {
		t.Fatalf("StatesInto returned %d states, want 100", len(buf))
	}
}

// StatesInto appends: it keeps what dst already holds, and a buffer reused
// across ticks reads exactly what a fresh one does.
func TestStatesIntoAppends(t *testing.T) {
	net, eb, _, err := roadnet.Highway(1000, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	m := NewRoadModel(net, rand.New(rand.NewSource(2)))
	for i := 0; i < 20; i++ {
		m.AddVehicle(eb, i%2, float64(i)*30, DefaultIDM(28), Car)
	}
	prefix := State{ID: 999}
	var reused []State
	for tick := 0; tick < 5; tick++ {
		m.Advance(0.1)
		fresh := m.StatesInto(nil)
		reused = m.StatesInto(reused[:0])
		if len(fresh) != 20 || !slices.Equal(reused, fresh) {
			t.Fatalf("tick %d: reused buffer read %+v, fresh %+v", tick, reused, fresh)
		}
		if got := m.StatesInto([]State{prefix}); got[0] != prefix || !slices.Equal(got[1:], fresh) {
			t.Fatalf("tick %d: StatesInto after a prefix read %+v", tick, got)
		}
	}
}
