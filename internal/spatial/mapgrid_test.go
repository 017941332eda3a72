package spatial

import (
	"math"
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/geom"
)

// mapGrid is the reference the dense table is checked against: the grid as
// a hash map of cell lists, a cell deleted when its last member leaves, and
// the canonical (cx, cy) order recovered by sorting the keys.
type mapGrid struct {
	cell  float64
	cells map[cellKey][]int32
	pos   []geom.Vec2
	in    []bool
	count int
	epoch uint64
}

func newMapGrid(cell float64) *mapGrid {
	return &mapGrid{cell: cell, cells: map[cellKey][]int32{}, epoch: 1}
}

func (g *mapGrid) key(p geom.Vec2) cellKey {
	return cellKey{cx: int32(math.Floor(p.X / g.cell)), cy: int32(math.Floor(p.Y / g.cell))}
}

func (g *mapGrid) Update(id int32, p geom.Vec2) {
	for int(id) >= len(g.pos) {
		g.pos = append(g.pos, geom.Vec2{})
		g.in = append(g.in, false)
	}
	if g.in[id] {
		if g.pos[id] == p {
			return
		}
		g.epoch++
		old, nk := g.key(g.pos[id]), g.key(p)
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
	k := g.key(p)
	g.cells[k] = append(g.cells[k], id)
	g.pos[id] = p
}

func (g *mapGrid) Stage(id int32, p geom.Vec2) (changed bool, mv Move, cross, ok bool) {
	if int(id) >= len(g.in) || !g.in[id] {
		return false, Move{}, false, false
	}
	if g.pos[id] == p {
		return false, Move{}, false, true
	}
	old, nk := g.key(g.pos[id]), g.key(p)
	g.pos[id] = p
	if old == nk {
		return true, Move{}, false, true
	}
	return true, Move{id: id, from: old, to: nk}, true, true
}

func (g *mapGrid) Commit(mv Move) {
	g.removeFromCell(mv.from, mv.id)
	g.cells[mv.to] = append(g.cells[mv.to], mv.id)
}

func (g *mapGrid) AdvanceEpoch() { g.epoch++ }

func (g *mapGrid) Remove(id int32) {
	if int(id) >= len(g.in) || !g.in[id] {
		return
	}
	g.epoch++
	g.removeFromCell(g.key(g.pos[id]), id)
	g.in[id] = false
	g.count--
}

func (g *mapGrid) removeFromCell(k cellKey, id int32) {
	items := g.cells[k]
	for i, v := range items {
		if v == id {
			items[i] = items[len(items)-1]
			items = items[:len(items)-1]
			break
		}
	}
	if len(items) == 0 {
		delete(g.cells, k)
	} else {
		g.cells[k] = items
	}
}

// sortedKeys is every occupied cell in (cx, cy) order.
func (g *mapGrid) sortedKeys() []cellKey {
	keys := make([]cellKey, 0, len(g.cells))
	for k := range g.cells {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b cellKey) int {
		if a.cx != b.cx {
			return int(a.cx) - int(b.cx)
		}
		return int(a.cy) - int(b.cy)
	})
	return keys
}

func (g *mapGrid) DigestInto(d *digest.Writer) {
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
	for _, k := range g.sortedKeys() {
		d.U32(uint32(k.cx))
		d.U32(uint32(k.cy))
		items := g.cells[k]
		d.Int(len(items))
		for _, id := range items {
			d.U32(uint32(id))
		}
	}
}

func (g *mapGrid) Within(p geom.Vec2, r float64, dst []int32) []int32 {
	if r < 0 {
		return dst
	}
	r2 := r * r
	minK, maxK := g.key(geom.V(p.X-r, p.Y-r)), g.key(geom.V(p.X+r, p.Y+r))
	for cx := minK.cx; cx <= maxK.cx; cx++ {
		for cy := minK.cy; cy <= maxK.cy; cy++ {
			for _, id := range g.cells[cellKey{cx, cy}] {
				if g.pos[id].DistSq(p) <= r2 {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

func (g *mapGrid) Snapshot() *Snapshot {
	s := &Snapshot{Epoch: g.epoch}
	for _, k := range g.sortedKeys() {
		c := CellSpan{CX: k.cx, CY: k.cy, Start: int32(len(s.IDs))}
		for _, id := range g.cells[k] {
			s.IDs = append(s.IDs, id)
			s.Pos = append(s.Pos, g.pos[id])
		}
		c.End = int32(len(s.IDs))
		s.Cells = append(s.Cells, c)
	}
	return s
}

// gridOps replays an operation tape on the dense grid and the reference
// and fails at the first answer they disagree on. Each operation is six
// bytes: kind (the operation in its low three bits, mod 5; a query's
// radius in the next two), item, then x and y as little-endian int16 scaled to ±1 km,
// or to ±100 km: x when the kind's 0x40 bit is set, y when 0x80 is (a box
// far out on both axes is the slow case, as its walks cover every cell).
// Consecutive Stage
// operations form one tick, committed in staging order and closed with one
// AdvanceEpoch (an item the grid does not hold falls back to Update, as the
// world's step loop does) before any other operation runs.
func gridOps(t *testing.T, cell float64, tape []byte) {
	g, ref := NewGrid(cell), newMapGrid(cell)
	var moves, refMoves []Move
	changed := false
	flush := func() {
		for i := range moves {
			g.Commit(moves[i])
			ref.Commit(refMoves[i])
		}
		if changed {
			g.AdvanceEpoch()
			ref.AdvanceEpoch()
		}
		moves, refMoves, changed = moves[:0], refMoves[:0], false
	}
	var dst, refDst []int32
	for step := 0; len(tape) >= 6; step, tape = step+1, tape[6:] {
		kind, id := tape[0], int32(tape[1]%32)
		op := kind & 7 % 5
		p := geom.V(coord(tape[2], tape[3], kind&0x40 != 0), coord(tape[4], tape[5], kind&0x80 != 0))
		if op != 1 {
			flush()
		}
		switch op {
		case 0:
			g.Update(id, p)
			ref.Update(id, p)
		case 1:
			ch, mv, cross, ok := g.Stage(id, p)
			rch, rmv, rcross, rok := ref.Stage(id, p)
			if ch != rch || cross != rcross || ok != rok {
				t.Fatalf("step %d: Stage(%d, %v) = %v %v %v, reference %v %v %v", step, id, p, ch, cross, ok, rch, rcross, rok)
			}
			if !ok {
				g.Update(id, p)
				ref.Update(id, p)
				continue
			}
			changed = changed || ch
			if cross {
				moves, refMoves = append(moves, mv), append(refMoves, rmv)
			}
		case 2:
			g.Remove(id)
			ref.Remove(id)
		case 3:
			g.AdvanceEpoch()
			ref.AdvanceEpoch()
		case 4:
			r := cell * float64(kind>>3&3) * 0.75
			dst, refDst = g.Within(p, r, dst[:0]), ref.Within(p, r, refDst[:0])
			if !slices.Equal(dst, refDst) {
				t.Fatalf("step %d: Within(%v, %v) = %v, reference %v", step, p, r, dst, refDst)
			}
		}
		if op != 1 {
			// the op's cell and the item's every step; the whole table,
			// whose walk grows with the box, every eighth
			sameCell(t, step, g, ref, g.key(p))
			if at, ok := g.Position(id); ok {
				sameCell(t, step, g, ref, g.key(at))
			}
			if step%8 == 0 {
				sameDigest(t, step, g, ref)
			}
		}
	}
	flush()
	sameDigest(t, -1, g, ref)
	sameGrid(t, g, ref)
}

func coord(lo, hi byte, far bool) float64 {
	v := float64(int16(uint16(lo) | uint16(hi)<<8))
	if far {
		return v * 100000 / 32768
	}
	return v * 1000 / 32768
}

func sameCell(t *testing.T, step int, g *Grid, ref *mapGrid, k cellKey) {
	t.Helper()
	if got, want := g.CellList(k.cx, k.cy), ref.cells[k]; !slices.Equal(got, want) {
		t.Fatalf("step %d: cell (%d,%d) = %v, reference %v", step, k.cx, k.cy, got, want)
	}
}

func sameDigest(t *testing.T, step int, g *Grid, ref *mapGrid) {
	t.Helper()
	d, rd := digest.New(), digest.New()
	g.DigestInto(d)
	ref.DigestInto(rd)
	if d.Sum() != rd.Sum() {
		t.Fatalf("step %d: digest %x, reference %x", step, d.Sum(), rd.Sum())
	}
}

// sameGrid compares every cell list (each cell of the dense box and each
// occupied cell of the reference), every position and the snapshot.
func sameGrid(t *testing.T, g *Grid, ref *mapGrid) {
	t.Helper()
	for s := range g.cells {
		cx, cy := int32(g.x0+s/g.ny), int32(g.y0+s%g.ny)
		if got, want := g.CellList(cx, cy), ref.cells[cellKey{cx, cy}]; !slices.Equal(got, want) {
			t.Fatalf("cell (%d,%d) = %v, reference %v", cx, cy, got, want)
		}
	}
	for k, want := range ref.cells {
		if got := g.CellList(k.cx, k.cy); !slices.Equal(got, want) {
			t.Fatalf("cell (%d,%d) = %v, reference %v", k.cx, k.cy, got, want)
		}
	}
	for id := range ref.in {
		p, ok := g.Position(int32(id))
		if ok != ref.in[id] || (ok && p != ref.pos[id]) {
			t.Fatalf("Position(%d) = %v %v, reference %v %v", id, p, ok, ref.pos[id], ref.in[id])
		}
	}
	s, rs := g.Snapshot(), ref.Snapshot()
	if s.Epoch != rs.Epoch || !slices.Equal(s.Cells, rs.Cells) || !slices.Equal(s.IDs, rs.IDs) || !slices.Equal(s.Pos, rs.Pos) {
		t.Fatalf("snapshot differs from the reference:\n got %+v\nwant %+v", s, rs)
	}
}

// gridCells are the cell edges the grid is fuzzed at: the unit disk's
// 250 m, the shadowing channel's 545 m reach, and a coarse 1 km. ±100 km
// at the finest is an 800×800 box.
var gridCells = [...]float64{250, 545, 1000}

// tape encodes operations for gridOps.
func tape(ops ...[4]int) []byte {
	var b []byte
	for _, op := range ops {
		b = append(b, byte(op[0]), byte(op[1]), byte(op[2]), byte(op[2]>>8), byte(op[3]), byte(op[3]>>8))
	}
	return b
}

func FuzzGridOps(f *testing.F) {
	// a fleet driving east past the box, then a tick of cross-cell moves
	var drive [][4]int
	for i := 0; i < 24; i++ {
		drive = append(drive, [4]int{0x40, i, i * 1200, 0})
	}
	for i := 0; i < 24; i++ {
		drive = append(drive, [4]int{1 | 0x40, i, i*1200 + 100, 40})
	}
	f.Add(uint8(0), tape(drive...))
	// negative coordinates, removals that empty cells, queries across them
	f.Add(uint8(1), tape([4]int{0, 1, -300, -300}, [4]int{0, 2, -10, 5}, [4]int{0, 3, 20, -700},
		[4]int{4 | 0xd8, 0, -100, -100}, [4]int{2, 2, 0, 0}, [4]int{1, 1, 9000, 9000},
		[4]int{1, 3, -9000, 9000}, [4]int{4 | 0x08, 0, 0, 0}, [4]int{0 | 0xc0, 4, -32768, 32767},
		[4]int{3, 0, 0, 0}, [4]int{2, 1, 0, 0}, [4]int{4 | 0x58, 0, 0, 0}))
	// the same item staged twice in one tick, and an unknown item staged
	f.Add(uint8(2), tape([4]int{0, 5, 100, 100}, [4]int{1, 5, 30000, 100}, [4]int{1, 5, -30000, 100},
		[4]int{1, 6, 50, 50}, [4]int{4 | 0x50, 0, 0, 0}))
	f.Fuzz(func(t *testing.T, cell uint8, ops []byte) {
		if len(ops) > 6*96 {
			ops = ops[:6*96]
		}
		gridOps(t, gridCells[int(cell)%len(gridCells)], ops)
	})
}
