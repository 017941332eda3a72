package niude

import "testing"

// TestDelayBoundRejectsLongPaths pins the 0.5 s QoS admission: a copy whose
// expected delay meets the bound is scored by its reliability, one over it
// scores −1 and can never win the selection. The rule is called directly
// because a path needs dozens of hops through dense neighborhoods to
// accumulate half a second of hopDelay.
func TestDelayBoundRejectsLongPaths(t *testing.T) {
	for _, tc := range []struct {
		delay, want float64
	}{{0, 0.9}, {0.49, 0.9}, {0.5, 0.9}, {0.51, -1}, {10, -1}} {
		if got := admit(tc.delay, 0.9); got != tc.want {
			t.Errorf("delay %v s: score %v, want %v", tc.delay, got, tc.want)
		}
	}
}
