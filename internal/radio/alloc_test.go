package radio

import (
	"testing"
	"unsafe"

	"github.com/vanetlab/relroute/internal/channel"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/prob"
	"github.com/vanetlab/relroute/internal/spatial"
)

// Steady-state allocation pins: once a cache's backing arrays have grown
// to the working set, neither same-epoch queries nor post-move rebuilds
// may allocate — the cache sits on the per-frame transmit path.

func warmCache(model channel.Model) (*spatial.Grid, *Cache) {
	grid := spatial.NewGrid(model.MaxRange())
	c := NewCache(grid, model)
	for id := int32(0); id < 64; id++ {
		grid.Update(id, geom.V(float64(id)*30, 0))
	}
	for id := int32(0); id < 64; id++ {
		c.Links(id)
	}
	return grid, c
}

func TestQueryAllocFree(t *testing.T) {
	_, c := warmCache(channel.UnitDisk{Range: 250})
	allocs := testing.AllocsPerRun(200, func() {
		for id := int32(0); id < 64; id++ {
			c.Links(id)
		}
	})
	if allocs != 0 {
		t.Fatalf("same-epoch Links allocated %v times per run, want 0", allocs)
	}
}

func TestRebuildAllocFree(t *testing.T) {
	for _, model := range []channel.Model{
		channel.UnitDisk{Range: 250},
		channel.NewShadowing(prob.DefaultReceiptModel()),
	} {
		grid, c := warmCache(model)
		x := 0.0
		// every iteration moves a node (advancing the grid epoch) and
		// rebuilds every neighborhood against the new geometry
		allocs := testing.AllocsPerRun(100, func() {
			x += 1
			grid.Update(0, geom.V(x, 0))
			for id := int32(0); id < 64; id++ {
				c.Links(id)
			}
		})
		if allocs != 0 {
			t.Fatalf("%T: post-move rebuild allocated %v times per run, want 0", model, allocs)
		}
	}
}

// TestLinkIs16Bytes pins the hood's element: a receiver ID and a distance.
// Every rebuild writes one per candidate and every transmit reads them all,
// so a field added here is paid for in cache lines on both paths.
func TestLinkIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Link{}); got != 16 {
		t.Fatalf("radio.Link is %d bytes, want 16", got)
	}
}
