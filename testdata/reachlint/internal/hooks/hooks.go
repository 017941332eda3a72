// Package hooks is a generic core and the one protocol bound to it.
package hooks

// Hooks is what a protocol on the core implements.
type Hooks[P any] interface {
	Fold(p P) P
}

// Core runs a protocol's fold.
type Core[P any] struct {
	h Hooks[P]
}

// Init binds the protocol.
func (c *Core[P]) Init(h Hooks[P]) { c.h = h }

// Run folds p once.
func (c *Core[P]) Run(p P) P { return c.h.Fold(p) }

// Doubler is the protocol: its Fold is reached only through Hooks[int].
type Doubler struct{}

// Fold implements Hooks[int].
func (Doubler) Fold(p int) int { return 2 * p }

// unused is the fixture's one dead declaration.
func unused() {}

// Answerer is what a generic function hands its result to.
type Answerer[T any] interface {
	Answer(best T)
}

// Pick hands x to a.
func Pick[T any](a Answerer[T], x T) { a.Answer(x) }

// Keeper's Answer is reached only through the Answerer[int] that Pick[int]
// takes.
type Keeper struct{ Last *int }

// Answer implements Answerer[int].
func (k Keeper) Answer(best int) { *k.Last = best }
