package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/vanetlab/relroute/internal/core"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// A protocol's name is written in several places — Protocols, the router's
// Name, the name its routing core labels packets with, the taxonomy — and
// nothing but this test makes them agree: every runnable protocol builds a
// vehicle router that answers to that name, stamps it on what it sends, and
// is catalogued under a package directory that exists.
func TestProtocolNamesAgree(t *testing.T) {
	pkg := map[string]string{}
	for _, e := range core.Taxonomy() {
		pkg[e.Name] = e.Package
	}
	pkg["Yan-TBP"] = pkg["Yan"] // the survey's marker for it
	for _, proto := range Protocols() {
		t.Run(proto, func(t *testing.T) {
			sc, err := Build(proto, quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			factory, _, err := sc.protocolFactory(proto)
			if err != nil {
				t.Fatal(err)
			}
			// the router under test and one co-moving neighbor in range
			// that beacons and records what it hears
			var log []routetest.Heard
			var r netstack.Router
			pair := []routetest.Vehicle{{Pos: geom.V(0, 0), Vel: geom.V(20, 0)}, {Pos: geom.V(100, 0), Vel: geom.V(20, 0)}}
			w, ids := routetest.World(t, 1, pair, func() netstack.Router {
				if r == nil {
					r = factory()
					return r
				}
				return routetest.Recorder(&log)()
			})
			if r.Name() != proto {
				t.Fatalf("router is named %q", r.Name())
			}
			w.AddFlow(ids[0], ids[1], 3, 1, 1, 64)
			if err := w.Run(6); err != nil {
				t.Fatal(err)
			}
			if len(log) == 0 {
				t.Fatal("the router sent nothing for a packet to a neighbor")
			}
			for _, h := range log {
				if h.Proto != proto {
					t.Fatalf("packet labelled %q", h.Proto)
				}
			}
			if dir := pkg[proto]; dir == "" {
				t.Fatal("not in core.Taxonomy, or without a package")
			} else if st, err := os.Stat(filepath.Join("..", "..", dir)); err != nil || !st.IsDir() {
				t.Fatalf("core.Taxonomy places it in %q, which is not a directory: %v", dir, err)
			}
		})
	}
}
