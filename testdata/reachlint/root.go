// Package relroute is the root of a fixture for TestEveryDeclarationIsReached:
// a core that takes its protocol's hooks through a generic interface, and a
// generic function that takes one.
package relroute

import "github.com/vanetlab/relroute/internal/hooks"

// Double runs the core with the one protocol that instantiates it and
// hands the result to Pick.
func Double(x int) int {
	var c hooks.Core[int]
	c.Init(hooks.Doubler{})
	y := c.Run(x)
	hooks.Pick(hooks.Keeper{Last: &y}, y+1)
	return y
}
