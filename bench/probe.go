package main

import "time"

// probe is the benchmark's machine-speed reference. The sandbox is a few
// cores of a shared host: the hypervisor takes the cores away for
// milliseconds at a time, the clock moves between two speeds, and the
// neighbours' traffic through the shared cache slows every miss. Together
// they move the wall-clock of one and the same simulation by a factor of two
// from one minute to the next — no statistic over a run's repetitions gets
// rid of that, because the whole run sits inside one spell.
//
// So every timed region is interleaved with slices of a fixed piece of work
// that owes nothing to the simulator. On the reference machine a fifth of a
// slice is a dependent chain of integer arithmetic (core-bound: it slows when
// the sibling hyperthread is busy), a fifth is a pointer chase through
// 256 KB (cache latency), and three fifths are read-modify-writes on a hash
// map of a few hundred kilobytes, which the simulation evicts between slices
// (misses, as the simulator's own tables take them). What the slices took,
// over what they take on the reference machine, is how slow the machine was
// while the region ran; the region's wall-clock divided by it is the
// wall-clock at the reference machine's speed. The slices themselves are
// never inside a timed region.
//
// The mix was chosen on recorded runs, some beside the sandbox's real
// neighbours and some beside processes that spin and thrash the cache: of
// the blends of these kernels (and of random reads over 16 MB) it is the one
// that steadied the map-heavy highway worlds, the integral-heavy city world
// and the small campaign worlds alike (README, "Steadiness").
type probe struct {
	table  map[uint64]float64
	chain  []uint32 // one cycle through every slot, in shuffled order
	spent  time.Duration
	slices int
}

const (
	probeKeys    = 8192
	probeSlots   = 1 << 16 // × 4 bytes
	probeShifts  = 129_000 // xorshift steps per slice
	probeHops    = 28_500  // pointer-chase steps per slice
	probeUpdates = 24_000  // map updates per slice
	// probeRef is one slice on the reference machine: the sandbox this
	// benchmark was defined on (2 vCPUs of a Xeon at 2.1 GHz), left alone.
	probeRef = 1400 * time.Microsecond
)

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func newProbe() *probe {
	p := &probe{table: make(map[uint64]float64, probeKeys), chain: make([]uint32, probeSlots)}
	for k := uint64(0); k < probeKeys; k++ {
		p.table[k] = float64(k)
	}
	order := make([]uint32, probeSlots)
	for i := range order {
		order[i] = uint32(i)
	}
	x := uint64(12345)
	for i := probeSlots - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	for i, slot := range order {
		p.chain[slot] = order[(i+1)%probeSlots]
	}
	return p
}

// speed is the process's probe; the timed regions of both passes share it.
var speed = newProbe()

// run does n slices. It allocates nothing: every key is already present.
func (p *probe) run(n int) {
	for ; n > 0; n-- {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < probeShifts; i++ {
			x = xorshift(x)
		}
		at := uint32(x % probeSlots)
		for i := 0; i < probeHops; i++ {
			at = p.chain[at]
		}
		var s float64
		for i := 0; i < probeUpdates; i++ {
			x = xorshift(x)
			k := x % probeKeys
			p.table[k] = p.table[k]*0.5 + 1
			s += p.table[(k*7)%probeKeys]
		}
		sink += s + float64(at)
		p.spent += time.Since(t0)
		p.slices++
	}
}

// mark opens an interval; slowdown closes it.
type probeMark struct {
	spent  time.Duration
	slices int
}

func (p *probe) mark() probeMark { return probeMark{p.spent, p.slices} }

// slowdown is how much slower than the reference machine the slices since m
// ran; 1 when there were none.
func (p *probe) slowdown(m probeMark) float64 {
	n := p.slices - m.slices
	if n == 0 {
		return 1
	}
	return float64(p.spent-m.spent) / (float64(n) * float64(probeRef))
}
