// Package sim provides the discrete-event simulation engine: a virtual
// clock, an event scheduler, and deterministic per-component random number
// streams. Every experiment in the repository runs on this engine, so a
// scenario seed fully determines a run.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/eventq"
	"github.com/vanetlab/relroute/internal/prng"
)

// ErrInterrupted is returned by Run when the engine was aborted by
// Interrupt — typically a per-run deadline firing on another goroutine.
var ErrInterrupted = errors.New("sim: engine interrupted")

// TimerID identifies a scheduled callback so it can be cancelled.
type TimerID = eventq.ID

// Engine is the discrete-event simulator core. It is single-threaded by
// design: all callbacks run on the goroutine that called Run, which removes
// any need for locking in the models layered on top of it.
type Engine struct {
	now     float64
	q       eventq.Queue
	root    *rand.Rand
	rootSrc *prng.Source
	// streams are the counting sources behind every generator handed out
	// by Rand, in creation order (which is deterministic — stream creation
	// happens on the single-threaded event path). Together with rootSrc
	// they are the engine's share of the checkpoint stream table: each
	// stream serializes as (seed, draw position).
	streams []*prng.Source
	events  uint64
	// interrupted is the only cross-goroutine signal into the engine: a
	// watchdog (the runner's per-run timeout) may flip it while Run is
	// executing events on another goroutine. It is sticky — once set, Run
	// returns ErrInterrupted at the next check and never resumes.
	interrupted atomic.Bool
}

// NewEngine returns an engine whose random streams derive from seed.
func NewEngine(seed int64) *Engine {
	src := prng.New(seed)
	return &Engine{root: rand.New(src), rootSrc: src}
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// EventCount returns the number of events executed so far. It is used by
// benchmarks to report simulator throughput.
func (e *Engine) EventCount() uint64 { return e.events }

// Pending returns the number of scheduled events that have not yet fired.
func (e *Engine) Pending() int { return e.q.Len() }

// Rand derives a new deterministic random stream. Each component (channel,
// MAC, mobility, each router) should take its own stream at construction
// time so that adding randomness to one component does not perturb others.
func (e *Engine) Rand() *rand.Rand {
	r, src := prng.Rand(e.RandSeed())
	e.streams = append(e.streams, src)
	return r
}

// RandSeed draws the next stream seed from the root source without
// building a generator. Components whose stream may never be drawn from
// take a seed eagerly (keeping the root stream, and therefore every other
// component's stream, byte-identical) and materialize the generator on
// first use: the checkpoint stream table lists exactly the streams a
// component has taken.
func (e *Engine) RandSeed() int64 { return e.root.Int63() }

// DigestInto folds the engine's checkpoint-relevant state into d: the
// clock, the executed-event count, the root stream position, every
// derived stream's (seed, position), and the full pending-event queue in
// canonical (time, scheduling-order) pop order — see eventq.DigestInto,
// which is invariant to the queue's internal layout (heap vs calendar).
// Two engines that executed the same event history digest identically,
// regardless of process, wall-clock interleaving, or event storage
// layout.
func (e *Engine) DigestInto(d *digest.Writer) {
	d.F64(e.now)
	d.U64(e.events)
	d.I64(e.rootSrc.SeedValue())
	d.U64(e.rootSrc.Draws())
	d.Int(len(e.streams))
	for _, s := range e.streams {
		d.I64(s.SeedValue())
		d.U64(s.Draws())
	}
	e.q.DigestInto(d)
}

// AppendStreamStates appends the serializable state of the engine's own
// random streams — the root source plus every generator created through
// Rand, in creation order — to dst. The checkpoint snapshot stores the
// result; a restored engine must reproduce the table exactly.
func (e *Engine) AppendStreamStates(dst []prng.State) []prng.State {
	dst = append(dst, prng.StateOf("engine/root", e.rootSrc))
	for i, s := range e.streams {
		dst = append(dst, prng.StateOf(fmt.Sprintf("engine/stream%d", i), s))
	}
	return dst
}

// At schedules fn to run at absolute time at. Scheduling in the past is
// clamped to "now" so callers don't silently lose events.
func (e *Engine) At(at float64, fn func()) TimerID {
	if at < e.now {
		at = e.now
	}
	return e.q.Schedule(at, fn)
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) TimerID {
	if d < 0 {
		d = 0
	}
	return e.q.Schedule(e.now+d, fn)
}

// Cancel removes a pending timer. It reports whether a pending event was
// actually cancelled.
func (e *Engine) Cancel(id TimerID) bool { return e.q.Cancel(id) }

// Interrupt aborts Run from any goroutine: the loop notices the flag
// within a bounded number of events and returns ErrInterrupted. It is
// sticky, so a deadline that fires between runs still aborts the next Run
// call.
func (e *Engine) Interrupt() { e.interrupted.Store(true) }

// Run executes events in time order until the clock reaches until (events
// scheduled exactly at until still fire) or the queue drains. It returns
// ErrInterrupted if Interrupt was called.
func (e *Engine) Run(until float64) error {
	for {
		// The atomic load is amortized across 64 events so the hot loop
		// stays branch-cheap; an interrupt lands within one batch.
		if e.events&63 == 0 && e.interrupted.Load() {
			return ErrInterrupted
		}
		at, ok := e.q.PeekTime()
		if !ok || at > until {
			e.now = until
			return nil
		}
		_, fn, _ := e.q.Pop()
		e.now = at
		e.events++
		fn()
	}
}

// Ticker invokes fn at start and then every interval seconds for the rest
// of the run, rescheduling each period at now + interval once fn returns.
// A jitter fraction in [0,1) randomises each period by ±jitter/2·interval
// to avoid global phase locking (real beacon implementations do the same).
// No periodic job of the simulator ends early, so there is no stop handle.
func (e *Engine) Ticker(start, interval, jitter float64, rng *rand.Rand, fn func()) {
	// One closure rescheduling itself keeps periodic work allocation-free.
	var tick func()
	tick = func() {
		fn()
		next := e.now + interval
		if jitter > 0 && rng != nil {
			next += interval * jitter * (rng.Float64() - 0.5)
		}
		e.At(next, tick)
	}
	e.At(start, tick)
}
