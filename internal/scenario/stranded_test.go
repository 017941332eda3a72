package scenario

import (
	"testing"

	"github.com/vanetlab/relroute/internal/netstack"
)

// TestStrandedPairs counts, for each protocol built on routing.Discovery,
// the (node, destination) pairs that end a default-world run (seeds 1–10)
// with data queued and no discovery in flight. A discovery whose deadline finds a
// route releases the queue onto it (Discovery.deadline), so no pair is
// left with data that no timer will release or drop. The routers are
// collected through a wrapping factory, which leaves every run
// byte-identical.
func TestStrandedPairs(t *testing.T) {
	for _, proto := range []string{"AODV", "PBR", "Taleb", "Abedi", "NiuDe", "DSR", "TBP-SS"} {
		for seed := int64(1); seed <= 10; seed++ {
			opts := Options{Seed: seed}
			opts.setDefaults()
			spec, opts, err := specFromOptions(opts)
			if err != nil {
				t.Fatal(err)
			}
			factory, _, err := (&Scenario{Opts: opts}).protocolFactory(proto)
			if err != nil {
				t.Fatal(err)
			}
			var routers []interface{ Stranded() int }
			collect := func() netstack.Router {
				r := factory()
				routers = append(routers, r.(interface{ Stranded() int }))
				return r
			}
			sc, err := buildSpec(proto, spec, opts, collect)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sc.Run(); err != nil {
				t.Fatal(err)
			}
			got := 0
			for _, r := range routers {
				got += r.Stranded()
			}
			if got != 0 {
				t.Errorf("%s seed %d: %d stranded pairs at run end, want 0", proto, seed, got)
			}
		}
	}
}
