package scenario

import (
	"testing"

	"github.com/vanetlab/relroute/internal/routing/busferry"
)

// TestRouterFactoryObjects pins what a router costs its arriving vehicle:
// the router alone. Every core takes its protocol's hooks as one interface
// value, the router itself, and every route table and duplicate cache is
// held by value with its maps made at first use. The bus ferry binds its
// core in Attach, once it knows the node kind; that binding adds nothing.
func TestRouterFactoryObjects(t *testing.T) {
	for _, proto := range Protocols() {
		sc, err := Build(proto, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		factory, _, err := sc.protocolFactory(proto)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { factory() }); n != 1 {
			t.Errorf("a %s router is %v objects, want 1", proto, n)
		}
	}
	bus := busferry.New()().(*busferry.Router)
	if n := testing.AllocsPerRun(100, func() { bus.Init(60, bus) }); n != 0 {
		t.Errorf("binding the bus ferry's core allocates %v objects, want 0", n)
	}
}
