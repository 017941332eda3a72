package channel

import (
	"math/rand"
	"testing"

	"github.com/vanetlab/relroute/internal/prob"
)

func TestUnitDisk(t *testing.T) {
	u := UnitDisk{Range: 250}
	rng := rand.New(rand.NewSource(1))
	if !u.Decodable(250, rng) {
		t.Error("frame at exactly the range not decodable")
	}
	if u.Decodable(250.01, rng) {
		t.Error("frame beyond the range decodable")
	}
	if u.MaxRange() != 250 || u.MeanRange() != 250 {
		t.Error("ranges wrong")
	}
}

func TestUnitDiskRSSIMonotone(t *testing.T) {
	u := UnitDisk{Range: 250}
	prev := 1000.0
	for d := 1.0; d < 1000; d *= 2 {
		r := u.RSSI(d, nil)
		if r >= prev {
			t.Fatalf("RSSI not decreasing at %v", d)
		}
		prev = r
	}
}

func TestShadowingRanges(t *testing.T) {
	s := NewShadowing(prob.DefaultReceiptModel())
	if s.MaxRange() <= s.MeanRange() {
		t.Fatalf("max range %v should exceed median range %v", s.MaxRange(), s.MeanRange())
	}
	// beyond max range reception probability is below the cutoff
	if p := s.receipt.Prob(s.MaxRange() * 1.01); p > s.cutoffProb {
		t.Fatalf("prob beyond max range = %v", p)
	}
	// the range computed once at construction is the model's, to the bit
	if got, want := s.MeanRange(), s.receipt.MedianRange(); got != want {
		t.Fatalf("MeanRange = %v, receipt model's median range %v", got, want)
	}
}

func TestShadowingDecodableStatistics(t *testing.T) {
	s := NewShadowing(prob.DefaultReceiptModel())
	rng := rand.New(rand.NewSource(2))
	median := s.MeanRange()
	const n = 20000
	ok := 0
	for i := 0; i < n; i++ {
		if s.Decodable(median, rng) {
			ok++
		}
	}
	frac := float64(ok) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("decodable fraction at median range = %v, want ≈0.5", frac)
	}
	// very close: always decodable; very far: never
	if !s.Decodable(1, rng) {
		t.Error("1 m frame lost")
	}
	okFar := 0
	for i := 0; i < 1000; i++ {
		if s.Decodable(s.MaxRange()*2, rng) {
			okFar++
		}
	}
	if okFar > 30 {
		t.Errorf("%d of 1000 frames decoded at 2x max range", okFar)
	}
}

func TestShadowingRSSIVariance(t *testing.T) {
	m := prob.DefaultReceiptModel()
	s := NewShadowing(m)
	rng := rand.New(rand.NewSource(3))
	const d = 100.0
	mean := m.MeanRxPower(d)
	sum, sumSq := 0.0, 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		r := s.RSSI(d, rng)
		sum += r
		sumSq += r * r
	}
	gotMean := sum / n
	gotVar := sumSq/n - gotMean*gotMean
	if diff := gotMean - mean; diff > 0.2 || diff < -0.2 {
		t.Fatalf("RSSI mean = %v, want %v", gotMean, mean)
	}
	wantVar := m.ShadowSigmaDB * m.ShadowSigmaDB
	if gotVar < wantVar*0.9 || gotVar > wantVar*1.1 {
		t.Fatalf("RSSI variance = %v, want ≈%v", gotVar, wantVar)
	}
	// nil rng degrades to the deterministic mean
	if got := s.RSSI(d, nil); got != mean {
		t.Fatalf("RSSI(nil rng) = %v, want mean %v", got, mean)
	}
}

// TestPrecomputedContract pins the Precomputed wrappers bench/replay.go
// still calls, for both models: DecodableAt(PathLoss(d), rng) must return
// the same verdict and consume the same RNG draws as Decodable(d, rng) at
// every distance.
func TestPrecomputedContract(t *testing.T) {
	models := map[string]Model{
		"unitdisk":  UnitDisk{Range: 250},
		"shadowing": NewShadowing(prob.DefaultReceiptModel()),
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			pre, ok := m.(Precomputed)
			if !ok {
				t.Fatalf("%s does not implement Precomputed", name)
			}
			rngA := rand.New(rand.NewSource(42))
			rngB := rand.New(rand.NewSource(42))
			for d := 0.0; d < 1200; d += 0.7 {
				split := pre.DecodableAt(pre.PathLoss(d), rngA)
				direct := m.Decodable(d, rngB)
				if split != direct {
					t.Fatalf("d=%v: split verdict %v, direct %v", d, split, direct)
				}
			}
			for i := 0; i < 8; i++ {
				if a, b := rngA.Float64(), rngB.Float64(); a != b {
					t.Fatalf("RNG streams diverged: split path consumed different draws")
				}
			}
		})
	}
}

var benchRange float64

// BenchmarkShadowingMeanRange is API.RangeEstimate on a shadowed world:
// every analytic lifetime and stability evaluation reads it.
func BenchmarkShadowingMeanRange(b *testing.B) {
	var m Model = NewShadowing(prob.DefaultReceiptModel())
	for i := 0; i < b.N; i++ {
		benchRange += m.MeanRange()
	}
}
