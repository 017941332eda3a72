package rear

import (
	"testing"

	"github.com/vanetlab/relroute/internal/netstack"
)

// TestMinReceiptOptionFiltersWeakLinks pins the per-hop receipt floor at
// 0.2: a neighbor below it is never a candidate, one at it is. The rule is
// called directly because no unit-disk world reaches the floor: every
// neighbor in range there reads at least 0.5.
func TestMinReceiptOptionFiltersWeakLinks(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		want bool
	}{{0, false}, {0.19, false}, {0.2, true}, {0.5, true}, {1, true}} {
		if got := reliable(netstack.LinkState{ReceiptProb: tc.p}); got != tc.want {
			t.Errorf("receipt probability %v: reliable = %v, want %v", tc.p, got, tc.want)
		}
	}
}
