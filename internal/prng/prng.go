// Package prng is the simulation's random-number generator: math/rand's
// additive lagged-Fibonacci source, reimplemented output for output, with
// draw counting that makes every stream serializable as (seed, position).
//
// # Why math/rand's outputs
//
// Every golden file, checkpoint digest and benchmark fingerprint in the
// repository was recorded on rand.New(rand.NewSource(seed)) streams, so a
// Source must emit exactly what math/rand's source would for the same seed
// — bit for bit, draw for draw. It does; the tests and the fuzz target
// compare it against math/rand itself, which stays the oracle.
//
// # The generator
//
// math/rand's source keeps 607 64-bit words v and, per draw, adds the word
// 273 places back to the word 607 places back. Seeding fills v from a
// Park–Miller chain m(k) = 48271^k·s mod (2³¹−1): word i is
// m(21+3i)<<40 ^ m(22+3i)<<20 ^ m(23+3i) ^ cooked[i]. math/rand runs that
// 1,841-step serial chain and writes all 607 words on every Seed — 13 µs
// and a 5 KB state per stream, although a simulation node takes 22–64
// values in a run. A Source instead reduces the seed (O(1)) and computes a
// word only when a draw first reads it, from a table of the 1,841 powers
// of 48271 built at init; m(k) is then one multiplication and a fold.
// cooked is not vendored: the first 607 outputs of math/rand's seed-1
// source determine its initial words, and init solves for it.
//
// Draw d (counting from 1) is, in three phases:
//
//	d ≤ 273:        v[334−d] + v[607−d]
//	273 < d ≤ 607:  v[(334−d) mod 607] + x(d−273)
//	d > 607:        x(d−607) + x(d−273)
//
// where x(k) is the k-th output. So the history a draw reads is the
// stream's own earlier outputs. The first 72 of them go into a buffer
// inside the Source; the draw after that moves them once into a
// 607-word ring, which from then on holds the last 607 outputs. A stream
// that stays short never allocates beyond its Source.
//
// # Draw counting
//
// Int63 and Uint64 each advance the generator by exactly one step. A
// Source records its seed and counts draws, and (seed, draws) is a
// complete, portable encoding of the stream's state — the checkpoint plane
// stores that pair for every live stream and the restored process verifies
// its replayed streams reached the same positions.
package prng

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngFeed  = rngLen - rngTap // where math/rand's feed index starts
	int32max = 1<<31 - 1       // the Park–Miller modulus

	// seedSkip chain steps precede the first word; seedSteps is the chain.
	seedSkip  = 20
	seedSteps = seedSkip + 3*rngLen

	// inlineLen is how many outputs a Source holds before it allocates its
	// ring. A node stream takes 22–23 draws in the benchmark's 20 s highway
	// worlds and 60–64 in the paper's 60 s default run (CHANGES.md, PR 25);
	// 72 leaves a margin and keeps a Source inside the 640-byte size class.
	inlineLen = 72
)

var (
	// pow[k] = 48271^(k+1) mod (2³¹−1): chain step k+1 from a seed of 1.
	pow [seedSteps]uint32
	// cooked holds math/rand's rngCooked, as derived by init.
	cooked [rngLen]uint64
)

func init() {
	x := uint64(1)
	for k := range pow {
		x = x * 48271 % int32max
		pow[k] = uint32(x)
	}
	// Undo the first 607 draws of a seed-1 source. Draws 274..607 add the
	// output 273 back to the word at their feed index; draws 1..273 add two
	// initial words, the second of them solved by then.
	ref := rand.NewSource(1).(rand.Source64)
	var out, v [rngLen]uint64
	for i := range out {
		out[i] = ref.Uint64()
	}
	for d := rngLen; d > 0; d-- {
		if d > rngTap {
			v[feedIndex(d)] = out[d-1] - out[d-rngTap-1]
		} else {
			v[feedIndex(d)] = out[d-1] - v[rngLen-d]
		}
	}
	for i := range cooked {
		cooked[i] = v[i] ^ chainWord(i, 1)
	}
}

// feedIndex is the word draw d ≤ 607 overwrites: math/rand's feed index.
func feedIndex(d int) int {
	if d <= rngFeed {
		return rngFeed - d
	}
	return rngFeed + rngLen - d
}

// chainWord is the Park–Miller part of initial word i for reduced seed s.
func chainWord(i int, s uint64) uint64 {
	p := (*[3]uint32)(pow[seedSkip+3*i:])
	return mulmod(uint64(p[0]), s)<<40 ^ mulmod(uint64(p[1]), s)<<20 ^ mulmod(uint64(p[2]), s)
}

// mulmod is a·b mod (2³¹−1) for a, b in [1, 2³¹−2]. The product is never
// a multiple of the prime, so after one fold it lies in [1, 2·(2³¹−1)) and
// one subtraction finishes.
func mulmod(a, b uint64) uint64 {
	x := a * b
	x = x&int32max + x>>31
	if x >= int32max {
		x -= int32max
	}
	return x
}

// Source is a counting source that emits math/rand's sequence. Use New;
// the zero Source is not seeded. Not safe for concurrent use — a Source is
// confined to the simulation goroutine that owns it.
type Source struct {
	seed  int64  // as given to New or Seed
	draws uint64 // the stream's position
	s     uint64 // seed reduced as math/rand reduces it: the chain's start
	pos   int    // from draw 608 on: ring slot of x(draws+1−607)
	// ring holds x(k) at slot (k−1) mod 607; nil until draw inlineLen+1.
	ring  *[rngLen]uint64
	first [inlineLen]uint64 // x(1..inlineLen) while ring is nil
}

var _ rand.Source64 = (*Source)(nil)

// New returns a counting source seeded like rand.NewSource(seed).
func New(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Rand is the convenience constructor for the common idiom: a generator on
// a fresh counting source, plus the source for state inspection.
func Rand(seed int64) (*rand.Rand, *Source) {
	s := New(seed)
	return rand.New(s), s
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	if s.draws < rngLen {
		return s.early()
	}
	s.draws++
	r, i := s.ring, s.pos
	j := i + rngFeed
	if j >= rngLen {
		j -= rngLen
	}
	x := r[i] + r[j]
	r[i] = x
	if i++; i == rngLen {
		i = 0
	}
	s.pos = i
	return x
}

// early is draws 1..607, which read initial words.
func (s *Source) early() uint64 {
	s.draws++
	d := int(s.draws)
	if d > inlineLen && s.ring == nil {
		s.ring = new([rngLen]uint64)
		copy(s.ring[:], s.first[:])
	}
	h := s.first[:]
	if s.ring != nil {
		h = s.ring[:]
	}
	x := s.word(feedIndex(d))
	if d <= rngTap {
		x += s.word(rngLen - d)
	} else {
		x += h[d-rngTap-1]
	}
	h[d-1] = x
	return x
}

// word is initial word i of the stream.
func (s *Source) word(i int) uint64 { return chainWord(i, s.s) ^ cooked[i] }

// Seed implements rand.Source, resetting the stream position. Like
// math/rand it reduces the seed mod 2³¹−1, mapping 0 to 89482311; the
// ring, if any, is kept for the new stream.
func (s *Source) Seed(seed int64) {
	r := seed % int32max
	if r < 0 {
		r += int32max
	}
	if r == 0 {
		r = 89482311
	}
	s.seed, s.draws, s.s, s.pos = seed, 0, uint64(r), 0
}

// SeedValue returns the seed the stream was (re)initialized with.
func (s *Source) SeedValue() int64 { return s.seed }

// Draws returns how many values have been taken from the source — the
// stream's position. (seed, draws) fully determines all future output.
func (s *Source) Draws() uint64 { return s.draws }

// State is the serializable form of one stream: who owns it, where it
// started, and how far it has advanced. The checkpoint snapshot carries
// one State per live stream; a restored run must reproduce the table
// exactly, which localizes any determinism bug to the first diverging
// stream instead of a whole-run output diff.
type State struct {
	Owner string `json:"owner"`
	Seed  int64  `json:"seed"`
	Draws uint64 `json:"draws"`
}

// StateOf captures a source's state under the given owner tag.
func StateOf(owner string, s *Source) State {
	return State{Owner: owner, Seed: s.seed, Draws: s.draws}
}
