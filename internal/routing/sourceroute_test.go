package routing_test

import (
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// TestSourceRoutedForgetLink holds routes whose link from → to is the
// first, a middle or the last one, and routes that hold only the reversed
// link, or from and to apart. ForgetLink must drop exactly the three that
// cross from → to in that direction, count them, and leave the other paths
// as they were.
func TestSourceRoutedForgetLink(t *testing.T) {
	const from, to netstack.NodeID = 1, 2
	routes := map[netstack.NodeID][]netstack.NodeID{
		10: {from, to, 3, 10},    // first link
		11: {0, from, to, 11},    // a middle link
		to: {0, 5, from, to},     // the last link
		12: {0, to, from, 12},    // the reversed link only
		13: {0, from, 3, to, 13}, // both ends, not as a link
		14: {from, 14},
	}
	gone := []netstack.NodeID{10, 11, to}
	var s routing.SourceRouted
	for dst, path := range routes {
		s.Learn(dst, slices.Clone(path))
	}
	if n := s.ForgetLink(from, to); n != len(gone) {
		t.Fatalf("ForgetLink dropped %d routes, want %d", n, len(gone))
	}
	for dst, want := range routes {
		path, ok := s.Route(dst)
		if dropped := slices.Contains(gone, dst); ok == dropped {
			t.Fatalf("route to %d held = %v after ForgetLink(%d, %d)", dst, ok, from, to)
		}
		if ok && !slices.Equal(path, want) {
			t.Fatalf("path to %d became %v, want %v", dst, path, want)
		}
	}
	if n := s.ForgetLink(from, to); n != 0 {
		t.Fatalf("a second ForgetLink dropped %d routes, want 0", n)
	}
}
