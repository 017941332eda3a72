package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/vanetlab/relroute/internal/core"
)

// A protocol's name is written in two places — Protocols and the taxonomy —
// and nothing but this test makes them agree: every runnable protocol
// builds and is catalogued under a package directory that exists.
func TestProtocolNamesAgree(t *testing.T) {
	pkg := map[string]string{}
	for _, e := range core.Taxonomy() {
		pkg[e.Name] = e.Package
	}
	pkg["Yan-TBP"] = pkg["Yan"] // the survey's marker for it
	for _, proto := range Protocols() {
		t.Run(proto, func(t *testing.T) {
			if _, err := Build(proto, quickOpts()); err != nil {
				t.Fatal(err)
			}
			if dir := pkg[proto]; dir == "" {
				t.Fatal("not in core.Taxonomy, or without a package")
			} else if st, err := os.Stat(filepath.Join("..", "..", dir)); err != nil || !st.IsDir() {
				t.Fatalf("core.Taxonomy places it in %q, which is not a directory: %v", dir, err)
			}
		})
	}
}
