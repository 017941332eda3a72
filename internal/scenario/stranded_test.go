package scenario

import (
	"testing"

	"github.com/vanetlab/relroute/internal/netstack"
)

// TestStrandedPairs counts, for each protocol built on routing.Discovery,
// the (node, destination) pairs that end a default-world run with data
// queued and no discovery in flight. A discovery whose deadline finds a
// route only forgets itself (Discovery.deadline): when that route came
// some other way than an answer, which would have flushed the queue, the
// queue stays behind it, and no timer will release or drop it. The table pins how many pairs that leaves at the end of each run, so
// the fix shows here as zeros. The routers are collected through a
// wrapping factory, which leaves every run byte-identical.
func TestStrandedPairs(t *testing.T) {
	want := map[string][10]int{ // protocol → stranded pairs at run end, seeds 1–10
		"AODV":   {},
		"PBR":    {},
		"Taleb":  {7: 1},
		"Abedi":  {6: 1, 7: 1},
		"NiuDe":  {7: 1},
		"DSR":    {},
		"TBP-SS": {},
	}
	for _, proto := range []string{"AODV", "PBR", "Taleb", "Abedi", "NiuDe", "DSR", "TBP-SS"} {
		for i := range want[proto] {
			opts := Options{Seed: int64(i + 1)}
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
			if got != want[proto][i] {
				t.Errorf("%s seed %d: %d stranded pairs at run end, want %d", proto, i+1, got, want[proto][i])
			}
		}
	}
}
