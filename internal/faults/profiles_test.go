package faults

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
)

// TestProfilesBuildDeterministically: every registered profile, fed the
// same context twice (fresh Rand each time, same seed), must produce
// byte-identical schedules — the registry contract behind reproducible
// chaos tables.
func TestProfilesBuildDeterministically(t *testing.T) {
	ctx := func() Context {
		vehicles := make([]netstack.NodeID, 16)
		for i := range vehicles {
			vehicles[i] = netstack.NodeID(i)
		}
		return Context{
			Seed: 99, Duration: 60,
			Bounds:   geom.NewRect(geom.V(0, 0), geom.V(2000, 200)),
			Vehicles: vehicles,
			RSUs:     []netstack.NodeID{16, 17},
			Rand:     rand.New(rand.NewSource(99)),
		}
	}
	for _, name := range Names() {
		p, ok := profiles[name]
		if !ok {
			t.Fatalf("Names listed unknown profile %q", name)
		}
		a, b := p.Build(ctx()), p.Build(ctx())
		if !reflect.DeepEqual(a, b) {
			t.Errorf("profile %q is not deterministic:\n%+v\n%+v", name, a, b)
		}
		if len(a.Events) == 0 {
			t.Errorf("profile %q built an empty schedule", name)
		}
	}
}
