package prng

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// The wrapper's whole contract: rand.New over a counting source emits the
// exact sequence of rand.New(rand.NewSource(seed)), for every generator
// method the simulation uses. Any divergence would silently invalidate
// every golden file.
func TestSequencesMatchUnwrapped(t *testing.T) {
	const seed = 12345
	want := rand.New(rand.NewSource(seed))
	got, _ := Rand(seed)
	for i := 0; i < 1000; i++ {
		switch i % 6 {
		case 0:
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("Int63 draw %d: %d != %d", i, g, w)
			}
		case 1:
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("Float64 draw %d: %v != %v", i, g, w)
			}
		case 2:
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("NormFloat64 draw %d: %v != %v", i, g, w)
			}
		case 3:
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("Uint64 draw %d: %d != %d", i, g, w)
			}
		case 4:
			if g, w := got.Intn(97), want.Intn(97); g != w {
				t.Fatalf("Intn draw %d: %d != %d", i, g, w)
			}
		case 5:
			if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
				t.Fatalf("ExpFloat64 draw %d: %v != %v", i, g, w)
			}
		}
	}
}

// (seed, draws) must fully determine future output: a fresh stream
// fast-forwarded by the recorded draw count continues identically.
func TestStateIsCompleteEncoding(t *testing.T) {
	r1, s1 := Rand(77)
	for i := 0; i < 137; i++ {
		r1.NormFloat64() // rejection sampling: variable draws per call
	}
	st := StateOf("test", s1)
	if st.Seed != 77 || st.Draws == 0 {
		t.Fatalf("unexpected state %+v", st)
	}

	r2, s2 := Rand(st.Seed)
	for s2.Draws() < st.Draws {
		s2.Uint64() // discard at source level: one step per draw
	}
	for i := 0; i < 100; i++ {
		if g, w := r2.Float64(), r1.Float64(); g != w {
			t.Fatalf("draw %d after fast-forward: %v != %v", i, g, w)
		}
	}
	if s1.Draws() != s2.Draws() {
		t.Fatalf("positions diverged: %d vs %d", s1.Draws(), s2.Draws())
	}
}

func TestSeedResetsPosition(t *testing.T) {
	_, s := Rand(1)
	s.Int63()
	s.Seed(9)
	if s.Draws() != 0 || s.SeedValue() != 9 {
		t.Fatalf("Seed must reset position: draws=%d seed=%d", s.Draws(), s.SeedValue())
	}
}

func TestDrawsCountsSourceSteps(t *testing.T) {
	r, s := Rand(3)
	r.Int63()
	r.Uint64()
	if s.Draws() != 2 {
		t.Fatalf("expected 2 source draws, got %d", s.Draws())
	}
}

// edgeSeeds are the seeds math/rand reduces specially: 0 and the multiples
// of 2³¹−1 (which become 89482311), negatives (shifted up by 2³¹−1), and
// the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, int32max - 1, int32max, int32max + 1, -int32max, -int32max - 1,
	2 * int32max, -2 * int32max, 89482311, -89482311, 89482311 + int32max,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// oracleDraws reaches past every phase boundary: the inline buffer, the
// tap (273), the first full cycle (607) and a second one (1,214).
const oracleDraws = 2*rngLen + 1

// testSeeds is edgeSeeds plus enough others, spread over the whole int64
// range and clustered near zero, to make 2,000.
func testSeeds() []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	gen := rand.New(rand.NewSource(2025))
	for len(seeds) < 2000 {
		switch len(seeds) % 3 {
		case 0:
			seeds = append(seeds, int64(gen.Uint64()))
		case 1:
			seeds = append(seeds, gen.Int63n(1<<20)-1<<19)
		default:
			seeds = append(seeds, int64(gen.Intn(64)-32)*int32max+gen.Int63n(3)-1)
		}
	}
	return seeds
}

// Over 2,000 seeds, every source-level output up to and past the second
// full cycle equals math/rand's, and Int63 is its masked Uint64.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got := New(seed)
		for d := 1; d <= oracleDraws; d++ {
			var g, w uint64
			if d%2 == 0 {
				g, w = got.Uint64(), want.Uint64()
			} else {
				g, w = uint64(got.Int63()), uint64(want.Int63())
			}
			if g != w {
				t.Fatalf("seed %d draw %d: %#x != %#x", seed, d, g, w)
			}
		}
		if got.Draws() != oracleDraws || got.SeedValue() != seed {
			t.Fatalf("seed %d: state (%d, %d)", seed, got.SeedValue(), got.Draws())
		}
	}
}

// Each generator method, run alone from a fresh stream until the source
// has passed draw n, for n at every phase boundary: the derived values
// (rejection loops included) equal math/rand's.
func TestMethodsMatchAtBoundaries(t *testing.T) {
	methods := []struct {
		name string
		call func(*rand.Rand) any
	}{
		{"Int63", func(r *rand.Rand) any { return r.Int63() }},
		{"Uint64", func(r *rand.Rand) any { return r.Uint64() }},
		{"Float64", func(r *rand.Rand) any { return r.Float64() }},
		{"NormFloat64", func(r *rand.Rand) any { return r.NormFloat64() }},
		{"ExpFloat64", func(r *rand.Rand) any { return r.ExpFloat64() }},
		{"Intn", func(r *rand.Rand) any { return r.Intn(1000003) }},
		{"Perm", func(r *rand.Rand) any { return r.Perm(7) }},
	}
	bounds := []uint64{1, inlineLen, inlineLen + 1, rngTap, rngTap + 1, rngLen, rngLen + 1, 2 * rngLen}
	for _, m := range methods {
		for _, seed := range edgeSeeds {
			for _, n := range bounds {
				got, src := Rand(seed)
				want := rand.New(rand.NewSource(seed))
				for src.Draws() < n {
					if g, w := m.call(got), m.call(want); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s seed %d at draw %d: %v != %v", m.name, seed, src.Draws(), g, w)
					}
				}
			}
		}
	}
}

// Seed mid-stream restarts the sequence whether the stream's history is
// still inline, has just moved to the ring, or the ring has wrapped.
func TestSeedMidStreamMatchesMathRand(t *testing.T) {
	for _, before := range []int{0, 5, inlineLen, inlineLen + 1, rngTap + 1, rngLen + 1, 3*rngLen + 17} {
		for _, reseed := range []int64{7, 0, math.MinInt64} {
			got, want := New(99), rand.NewSource(99).(rand.Source64)
			for i := 0; i < before; i++ {
				got.Uint64()
				want.Uint64()
			}
			got.Seed(reseed)
			want.Seed(reseed)
			if got.Draws() != 0 || got.SeedValue() != reseed {
				t.Fatalf("after %d draws, Seed(%d): state (%d, %d)", before, reseed, got.SeedValue(), got.Draws())
			}
			for d := 1; d <= oracleDraws; d++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("after %d draws, Seed(%d), draw %d: %#x != %#x", before, reseed, d, g, w)
				}
			}
		}
	}
}

// The stream's history lives inside the Source until it is needed: the
// first inlineLen draws allocate nothing, the next moves them to the ring
// in one allocation, and from there on nothing allocates.
func TestHistoryAllocations(t *testing.T) {
	if size := unsafe.Sizeof(Source{}); size > 640 {
		t.Fatalf("Source is %d bytes, want ≤ 640", size)
	}
	fresh := New(5)
	if n := testing.AllocsPerRun(10, func() {
		fresh.Seed(5)
		for i := 0; i < inlineLen; i++ {
			fresh.Uint64()
		}
	}); n != 0 {
		t.Errorf("draws 1..%d: %v allocations, want 0", inlineLen, n)
	}
	full := make([]*Source, 11) // AllocsPerRun calls once more than asked
	for i := range full {
		full[i] = New(int64(i))
		for j := 0; j < inlineLen; j++ {
			full[i].Uint64()
		}
	}
	next := 0
	if n := testing.AllocsPerRun(10, func() { full[next].Uint64(); next++ }); n != 1 {
		t.Errorf("draw %d: %v allocations, want 1", inlineLen+1, n)
	}
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 3*rngLen; i++ {
			fresh.Uint64()
		}
	}); n != 0 {
		t.Errorf("draws past %d: %v allocations, want 0", inlineLen+1, n)
	}
}

// FuzzSourceMatchesMathRand draws up to 65,535 values from an arbitrary
// seed and compares every one with math/rand's; a reseed halfway checks
// that Seed restarts the sequence from wherever the stream was.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(oracleDraws))
	}
	f.Add(int64(42), uint16(inlineLen+1))
	f.Add(int64(-7), uint16(rngTap+1))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		got, want := New(seed), rand.NewSource(seed).(rand.Source64)
		for d := 1; d <= int(draws); d++ {
			if d == int(draws)/2 {
				got.Seed(seed ^ int64(d))
				want.Seed(seed ^ int64(d))
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: %#x != %#x", seed, d, g, w)
			}
		}
	})
}

// BenchmarkNewStream is what materialising a stream costs: Rand(seed).
func BenchmarkNewStream(b *testing.B) {
	var seed int64
	for b.Loop() {
		seed++
		Rand(seed)
	}
}

// BenchmarkFreshStream25 is a node stream's whole life in a 20 s run: one
// seed and about 25 uniforms.
func BenchmarkFreshStream25(b *testing.B) {
	var seed int64
	for b.Loop() {
		seed++
		r, _ := Rand(seed)
		for i := 0; i < 25; i++ {
			r.Float64()
		}
	}
}

// hot is a stream well past its first cycle: the steady state.
func hot() *rand.Rand {
	r, _ := Rand(1)
	for i := 0; i < 4*rngLen; i++ {
		r.Uint64()
	}
	return r
}

func BenchmarkFloat64(b *testing.B) {
	r := hot()
	for b.Loop() {
		r.Float64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := hot()
	for b.Loop() {
		r.NormFloat64()
	}
}
