// Package par provides a fixed-size fork-join pool. Nothing in the
// simulator forks: the package survives only because bench/replay.go
// spells par.New and par.Seq and radio.Cache.RebuildSweep takes a *Pool
// (the simulator passes Seq, which runs inline). ROADMAP item 5's
// benchmark PR deletes it.
//
// A Pool owns shards−1 long-lived worker goroutines (shard 0 always runs
// on the caller's goroutine, so a one-shard pool is plain inline
// execution with zero synchronisation). Run hands every shard the same
// function and blocks until all of them return — a full barrier.
//
// Workers block on their job channel between phases; they never spin, so
// an oversubscribed machine (shards > cores, including the degenerate
// single-core case) degrades to sequential execution instead of
// livelocking.
package par

import "sync"

// Pool is a fixed-size fork-join worker pool. The zero value is not
// usable; construct with New. A Pool is not safe for concurrent Run
// calls — like every per-world structure it belongs to one simulation.
type Pool struct {
	n      int
	jobs   []chan func(int)
	wg     sync.WaitGroup
	panics []any // recovered panic value per worker, re-raised at the barrier
	closed bool
}

// Seq is the shared one-shard pool: Run executes inline on the caller's
// goroutine with no synchronisation.
var Seq = New(1)

// New returns a pool with the given shard count (values below 1 mean 1).
// Pools with more than one shard own goroutines; call Close when done.
func New(shards int) *Pool {
	if shards < 1 {
		shards = 1
	}
	p := &Pool{n: shards}
	if shards == 1 {
		return p
	}
	p.jobs = make([]chan func(int), shards-1)
	p.panics = make([]any, shards-1)
	for i := range p.jobs {
		ch := make(chan func(int), 1)
		p.jobs[i] = ch
		shard := i + 1
		go func() {
			for fn := range ch {
				p.runShard(shard, fn)
			}
		}()
	}
	return p
}

// Shards returns the pool's shard count.
func (p *Pool) Shards() int { return p.n }

// Run executes fn(shard) once per shard — shard 0 on the calling
// goroutine, the rest on the pool's workers — and returns only when every
// shard has finished (the barrier). A panic in any shard is re-raised
// here on the caller after the barrier completes, so no worker is left
// running against torn state.
func (p *Pool) Run(fn func(shard int)) {
	if p.n == 1 {
		fn(0)
		return
	}
	p.wg.Add(p.n - 1)
	for _, ch := range p.jobs {
		ch <- fn
	}
	defer p.barrier()
	fn(0)
}

func (p *Pool) runShard(shard int, fn func(int)) {
	defer p.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			p.panics[shard-1] = r
		}
	}()
	fn(shard)
}

// barrier waits for the workers and surfaces the first worker panic.
func (p *Pool) barrier() {
	p.wg.Wait()
	for i, r := range p.panics {
		if r != nil {
			p.panics[i] = nil
			panic(r)
		}
	}
}

// Close stops the worker goroutines. Running the pool after Close panics;
// closing twice (or closing Seq) is a no-op.
func (p *Pool) Close() {
	if p.closed || p.n == 1 {
		p.closed = true
		return
	}
	p.closed = true
	for _, ch := range p.jobs {
		close(ch)
	}
}

// Range splits n items across the pool's shards as evenly as possible and
// returns the half-open index range [lo, hi) that shard owns. The split
// depends only on (n, shard count), never on timing, so the same world
// always partitions the same way — the first half of the determinism
// contract (the second is that phases only compute pure functions).
func (p *Pool) Range(n, shard int) (lo, hi int) {
	q, r := n/p.n, n%p.n
	lo = shard*q + min(shard, r)
	hi = lo + q
	if shard < r {
		hi++
	}
	return lo, hi
}
