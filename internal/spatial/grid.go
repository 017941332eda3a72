// Package spatial provides a uniform-grid index over node positions: a
// dense table of cell member lists over a growing box of cells. The radio
// cache walks it to find the candidate receivers of a broadcast without
// scanning every node.
//
// The table is column-major, so storage order is (cx, cy) order, the
// canonical order the checkpoint digest and the CSR snapshot walk it in.
// The box only grows, and it grows geometrically on
// the side a new cell falls outside, so a fleet sweeping along a highway
// re-lays the table out O(log n) times. Its memory is one slice header per
// cell of the box, occupied or not.
package spatial

import (
	"math"

	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/geom"
)

// Grid is a uniform grid over int32 item IDs, held as a dense table over a
// growing box of cells. IDs are expected to be dense from zero (node IDs
// are), so positions live in a slice indexed by ID — range queries do one
// bounds-checked load per candidate, and a cell lookup is one index
// computation. The zero value is not usable; construct with NewGrid.
type Grid struct {
	cell float64
	// cells is the table: the member list of cell (cx, cy) is
	// cells[(cx-x0)*ny + cy-y0] for cx in [x0, x0+nx) and cy in
	// [y0, y0+ny). An emptied cell keeps its backing array.
	cells  [][]int32
	x0, y0 int
	nx, ny int
	pos    []geom.Vec2 // indexed by id; valid iff present[id]
	in     []bool      // present[id]: id is indexed
	count  int
	epoch  uint64    // advances on every geometric change; see Epoch
	snap   *Snapshot // per-epoch CSR view, built on demand; see Snapshot
}

type cellKey struct{ cx, cy int32 }

// NewGrid returns a grid with the given cell size in meters. Cell size
// should be on the order of the radio range so range queries touch at most
// nine cells.
func NewGrid(cellSize float64) *Grid {
	if cellSize <= 0 {
		cellSize = 1
	}
	return &Grid{
		cell:  cellSize,
		epoch: 1, // 1-based so callers can use 0 as a "never seen" sentinel
	}
}

// CellSize returns the configured cell edge length.
func (g *Grid) CellSize() float64 { return g.cell }

// Epoch returns a counter that advances whenever the indexed geometry
// changes: an item is inserted, removed, or moved to a different position.
// Range-query results are a pure function of the epoch, so callers (the
// radio link cache) can memoize them and detect staleness with one
// comparison instead of re-scanning. A no-op Update (same item, same
// position) does not advance it.
func (g *Grid) Epoch() uint64 { return g.epoch }

func (g *Grid) key(p geom.Vec2) cellKey {
	return cellKey{
		cx: int32(math.Floor(p.X / g.cell)),
		cy: int32(math.Floor(p.Y / g.cell)),
	}
}

// slot returns the table index of cell (cx, cy), or -1 outside the box.
func (g *Grid) slot(cx, cy int32) int {
	i, j := int(cx)-g.x0, int(cy)-g.y0
	if uint(i) >= uint(g.nx) || uint(j) >= uint(g.ny) {
		return -1
	}
	return i*g.ny + j
}

// cover returns the table index of cell k, first growing the box to
// cover it if it lies outside.
func (g *Grid) cover(k cellKey) int {
	if s := g.slot(k.cx, k.cy); s >= 0 {
		return s
	}
	if g.nx == 0 {
		g.cells = make([][]int32, 1)
		g.x0, g.y0, g.nx, g.ny = int(k.cx), int(k.cy), 1, 1
		return 0
	}
	x0, nx := widen(g.x0, g.nx, int(k.cx))
	y0, ny := widen(g.y0, g.ny, int(k.cy))
	cells := make([][]int32, nx*ny)
	for i := 0; i < g.nx; i++ {
		copy(cells[(g.x0-x0+i)*ny+g.y0-y0:], g.cells[i*g.ny:(i+1)*g.ny])
	}
	g.cells, g.x0, g.y0, g.nx, g.ny = cells, x0, y0, nx, ny
	return g.slot(k.cx, k.cy)
}

// widen returns the axis range [lo, lo+n) extended to cover c, by at least
// its own length on the side c falls outside.
func widen(lo, n, c int) (int, int) {
	switch {
	case c < lo:
		nlo := min(c, lo-n)
		return nlo, lo + n - nlo
	case c >= lo+n:
		return lo, max(c+1-lo, 2*n)
	}
	return lo, n
}

// grow extends the dense arrays to cover id.
func (g *Grid) grow(id int32) {
	for int(id) >= len(g.pos) {
		g.pos = append(g.pos, geom.Vec2{})
		g.in = append(g.in, false)
	}
}

// Update inserts the item or moves it to a new position.
func (g *Grid) Update(id int32, p geom.Vec2) {
	if id < 0 {
		return
	}
	g.grow(id)
	if g.in[id] {
		if g.pos[id] == p {
			return // stationary item: geometry unchanged, epoch stays
		}
		g.epoch++
		old := g.key(g.pos[id])
		nk := g.key(p)
		if old == nk {
			g.pos[id] = p
			return
		}
		g.removeFromCell(old, id)
	} else {
		g.epoch++
		g.in[id] = true
		g.count++
	}
	s := g.cover(g.key(p))
	g.cells[s] = append(g.cells[s], id)
	g.pos[id] = p
}

// Move is a staged cross-cell transition returned by Stage and applied by
// Commit. Values are opaque to callers.
type Move struct {
	id       int32
	from, to cellKey
}

// Stage writes the indexed position of an item without touching cell
// membership or the epoch. It is the first half of the bulk-update
// protocol the world engine uses for its per-tick refresh: the caller
// applies every returned cross-cell Move with Commit, in a deterministic
// order, and advances the epoch once for the whole tick with
// AdvanceEpoch.
//
// ok is false when the item is not indexed — the caller falls back to
// Update. changed reports whether the position differed (the signal to
// advance the epoch after the tick's last move); cross reports that mv
// holds a cell transition to Commit. Between a Stage that returns a move
// and its Commit, range queries over the item are undefined.
func (g *Grid) Stage(id int32, p geom.Vec2) (changed bool, mv Move, cross, ok bool) {
	if id < 0 || int(id) >= len(g.in) || !g.in[id] {
		return false, Move{}, false, false
	}
	if g.pos[id] == p {
		return false, Move{}, false, true
	}
	old := g.key(g.pos[id])
	nk := g.key(p)
	g.pos[id] = p
	if old == nk {
		return true, Move{}, false, true
	}
	return true, Move{id: id, from: old, to: nk}, true, true
}

// Commit applies a staged cross-cell move: the same remove-then-append
// cell surgery Update performs, in whatever order the caller replays the
// moves — cell list order is observable (it decides range-query order),
// so callers must replay in a deterministic order.
func (g *Grid) Commit(mv Move) {
	g.removeFromCell(mv.from, mv.id)
	s := g.cover(mv.to)
	g.cells[s] = append(g.cells[s], mv.id)
}

// AdvanceEpoch advances the epoch by one. It is the bulk-update
// counterpart of the per-Update bump: a tick's worth of Stage/Commit
// calls changes the geometry once as far as any epoch-keyed memo is
// concerned, no matter how many items moved.
func (g *Grid) AdvanceEpoch() { g.epoch++ }

// Remove deletes the item from the index. Removing an unknown item is a
// no-op.
func (g *Grid) Remove(id int32) {
	if id < 0 || int(id) >= len(g.in) || !g.in[id] {
		return
	}
	g.epoch++
	g.removeFromCell(g.key(g.pos[id]), id)
	g.in[id] = false
	g.count--
}

// removeFromCell swaps id out of cell k's list. The cell holds id, so it
// lies inside the box.
func (g *Grid) removeFromCell(k cellKey, id int32) {
	s := g.slot(k.cx, k.cy)
	items := g.cells[s]
	for i, v := range items {
		if v == id {
			items[i] = items[len(items)-1]
			g.cells[s] = items[:len(items)-1]
			return
		}
	}
}

// DigestInto folds the index's logical state into d for checkpoint
// verification: the epoch, the dense position/presence arrays in ID
// order, and every occupied cell's member list in list order (cell list
// order is observable — it decides range-query candidate order). Cells
// are visited in (cx, cy) order, the table's storage order.
func (g *Grid) DigestInto(d *digest.Writer) {
	d.U64(g.epoch)
	d.Int(g.count)
	d.Int(len(g.pos))
	for id, p := range g.pos {
		if !g.in[id] {
			continue
		}
		d.Int(id)
		d.F64(p.X)
		d.F64(p.Y)
	}
	for s, items := range g.cells {
		if len(items) == 0 {
			continue
		}
		d.U32(uint32(g.x0 + s/g.ny))
		d.U32(uint32(g.y0 + s%g.ny))
		d.Int(len(items))
		for _, id := range items {
			d.U32(uint32(id))
		}
	}
}

// Position returns the indexed position of the item.
func (g *Grid) Position(id int32) (geom.Vec2, bool) {
	if id < 0 || int(id) >= len(g.in) || !g.in[id] {
		return geom.Vec2{}, false
	}
	return g.pos[id], true
}

// Within appends to dst the IDs of all items within radius r of p
// (excluding none) and returns the extended slice. Passing a reused dst
// slice avoids allocation in the MAC hot path.
func (g *Grid) Within(p geom.Vec2, r float64, dst []int32) []int32 {
	if r < 0 {
		return dst
	}
	r2 := r * r
	minK := g.key(geom.V(p.X-r, p.Y-r))
	maxK := g.key(geom.V(p.X+r, p.Y+r))
	for cx := minK.cx; cx <= maxK.cx; cx++ {
		for cy := minK.cy; cy <= maxK.cy; cy++ {
			for _, id := range g.CellList(cx, cy) {
				if g.pos[id].DistSq(p) <= r2 {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

// CellBounds returns the inclusive cell-coordinate rectangle covering the
// axis-aligned square of half-width r around p — the stencil Within
// iterates. Bulk callers (the radio cache) use it to walk the same cells
// with CellList instead of paying Within's scratch-slice round trip.
func (g *Grid) CellBounds(p geom.Vec2, r float64) (minCX, minCY, maxCX, maxCY int32) {
	minK := g.key(geom.V(p.X-r, p.Y-r))
	maxK := g.key(geom.V(p.X+r, p.Y+r))
	return minK.cx, minK.cy, maxK.cx, maxK.cy
}

// CellList returns one cell's member list in list order (the order Within
// visits it). The slice is owned by the grid and valid only until the next
// mutation; callers must not retain or modify it. An empty cell returns an
// empty list.
func (g *Grid) CellList(cx, cy int32) []int32 {
	if s := g.slot(cx, cy); s >= 0 {
		return g.cells[s]
	}
	return nil
}

// At returns the indexed position of an item known to be present — ids
// obtained from CellList or a Snapshot. Unlike Position it skips the
// presence check; passing an id that is not indexed returns garbage.
func (g *Grid) At(id int32) geom.Vec2 { return g.pos[id] }

// CellSpan is one occupied cell of a Snapshot: its coordinates and the
// half-open [Start, End) window of the snapshot's IDs/Pos arrays holding
// its members, in cell list order.
type CellSpan struct {
	CX, CY     int32
	Start, End int32
}

// Snapshot is a CSR (compressed sparse row) view of the grid frozen at one
// epoch: every occupied cell sorted by (CX, CY), with member IDs and their
// positions packed contiguously per cell. Bulk sweeps iterate it with
// sequential loads, and find a cell by binary search.
//
// The fields are owned by the grid and read-only to callers; they are valid
// until the grid's next geometric change.
type Snapshot struct {
	Epoch uint64
	Cells []CellSpan
	IDs   []int32
	Pos   []geom.Vec2
}

// Search returns the index of the first cell with key >= (cx, cy) in the
// snapshot's (CX, CY) order, or len(Cells) if no such cell exists.
func (s *Snapshot) Search(cx, cy int32) int {
	lo, hi := 0, len(s.Cells)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := &s.Cells[mid]
		if c.CX < cx || (c.CX == cx && c.CY < cy) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Snapshot returns the CSR view of the grid at the current epoch, building
// it on first use per epoch in one pass over the table and memoizing it —
// repeat calls within an epoch are one comparison. The backing arrays are
// reused across epochs, so steady-state rebuilds do not allocate.
func (g *Grid) Snapshot() *Snapshot {
	s := g.snap
	if s == nil {
		s = &Snapshot{}
		g.snap = s
	}
	if s.Epoch == g.epoch {
		return s
	}
	s.Cells = s.Cells[:0]
	s.IDs = s.IDs[:0]
	s.Pos = s.Pos[:0]
	for k, items := range g.cells {
		if len(items) == 0 {
			continue
		}
		c := CellSpan{CX: int32(g.x0 + k/g.ny), CY: int32(g.y0 + k%g.ny), Start: int32(len(s.IDs))}
		for _, id := range items {
			s.IDs = append(s.IDs, id)
			s.Pos = append(s.Pos, g.pos[id])
		}
		c.End = int32(len(s.IDs))
		s.Cells = append(s.Cells, c)
	}
	s.Epoch = g.epoch
	return s
}
