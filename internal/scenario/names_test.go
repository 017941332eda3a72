package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/vanetlab/relroute/internal/core"
)

// A protocol's name is written in several places — Protocols, the router's
// Name, the taxonomy — and nothing but this test makes them agree: every
// runnable protocol builds a vehicle router that answers to that name and
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
			if name := factory().Name(); name != proto {
				t.Fatalf("router is named %q", name)
			}
			if dir := pkg[proto]; dir == "" {
				t.Fatal("not in core.Taxonomy, or without a package")
			} else if st, err := os.Stat(filepath.Join("..", "..", dir)); err != nil || !st.IsDir() {
				t.Fatalf("core.Taxonomy places it in %q, which is not a directory: %v", dir, err)
			}
		})
	}
}
