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
