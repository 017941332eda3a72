package hybrid

import (
	"math"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
)

// FuzzScoreMonotone checks what core.WithScorer requires of Score: for any
// geometry of the two ends, a larger stability never scores lower. The
// ticket router ranks links by Score over a bound of the metric, up to
// +Inf, and integrates only those whose bound can still win, so a
// decreasing stretch would prune a link that should have won.
func FuzzScoreMonotone(f *testing.F) {
	f.Add(0.0, 0.0, 30.0, 0.0, 100.0, 0.0, -30.0, 0.0, 250.0, 3.0, 40.0)      // head-on
	f.Add(0.0, 0.0, 30.0, 0.0, 100.0, 20.0, 29.0, 0.0, 250.0, 0.0, 300.0)     // co-moving
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 250.0, 1.0, math.Inf(1))    // parked, one spot
	f.Add(5.0, -3.0, 12.0, 9.0, -200.0, 40.0, -7.0, 22.0, 250.0, -1.0, 1e308) // crossing
	f.Fuzz(func(t *testing.T, ax, ay, avx, avy, bx, by, bvx, bvy, r, s1, s2 float64) {
		for _, v := range []float64{ax, ay, avx, avy, bx, by, bvx, bvy, r, s1, s2} {
			if math.IsNaN(v) {
				return
			}
		}
		lo, hi := min(s1, s2), max(s1, s2)
		aPos, aVel, bPos, bVel := geom.V(ax, ay), geom.V(avx, avy), geom.V(bx, by), geom.V(bvx, bvy)
		for _, pair := range [][2]float64{{lo, hi}, {lo, math.Inf(1)}, {hi, math.Inf(1)}} {
			at, above := blended(aPos, aVel, bPos, bVel, r, pair[0]), blended(aPos, aVel, bPos, bVel, r, pair[1])
			if at > above {
				t.Fatalf("Score at stability %v is %v, above %v at %v", pair[0], at, above, pair[1])
			}
		}
	})
}
