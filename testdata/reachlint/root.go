// Package relroute is the root of a fixture for TestEveryDeclarationIsReached:
// a core that takes its protocol's hooks through a generic interface.
package relroute

import "github.com/vanetlab/relroute/internal/hooks"

// Double runs the core with the one protocol that instantiates it.
func Double(x int) int {
	var c hooks.Core[int]
	c.Init(hooks.Doubler{})
	return c.Run(x)
}
