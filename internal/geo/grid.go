package geo

import "math"

// Grid is a uniform spatial index over a fixed set of points: the
// bounding box is cut into roughly √n × √n cells and each point's index
// is bucketed into the cell containing it. Rectangle queries touch only
// the covered cells instead of scanning every point, which is what lets
// the registry answer InRegion in O(cell) at thousands of APs.
//
// A Grid is immutable after BuildGrid; the registry rebuilds it as part
// of its copy-on-write snapshot, so queries never synchronize.
type Grid struct {
	min          Point
	cellW, cellH float64
	cols, rows   int
	cells        [][]int32 // row-major, cols*rows buckets of point indices
}

// BuildGrid indexes pts by position. Indices into pts are what queries
// yield back; callers keep the slice the indices refer into.
func BuildGrid(pts []Point) *Grid {
	n := len(pts)
	if n == 0 {
		return &Grid{}
	}
	min, max := pts[0], pts[0]
	for _, p := range pts[1:] {
		min.X = math.Min(min.X, p.X)
		min.Y = math.Min(min.Y, p.Y)
		max.X = math.Max(max.X, p.X)
		max.Y = math.Max(max.Y, p.Y)
	}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	g := &Grid{min: min, cols: side, rows: side}
	g.cellW = (max.X - min.X) / float64(side)
	g.cellH = (max.Y - min.Y) / float64(side)
	// Degenerate axes (all points collinear or identical) collapse to a
	// single stripe of cells along that axis.
	if g.cellW <= 0 {
		g.cellW = 1
	}
	if g.cellH <= 0 {
		g.cellH = 1
	}
	g.cells = make([][]int32, g.cols*g.rows)
	for i, p := range pts {
		cx, cy := g.cellOf(p)
		g.cells[cy*g.cols+cx] = append(g.cells[cy*g.cols+cx], int32(i))
	}
	return g
}

// Len reports the number of indexed points.
func (g *Grid) Len() int {
	n := 0
	for _, c := range g.cells {
		n += len(c)
	}
	return n
}

func (g *Grid) cellOf(p Point) (cx, cy int) {
	cx = clampCell(int((p.X-g.min.X)/g.cellW), g.cols)
	cy = clampCell(int((p.Y-g.min.Y)/g.cellH), g.rows)
	return cx, cy
}

func clampCell(c, n int) int {
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

// CellRange reports the inclusive cell-coordinate span covering r. An empty grid (or a rect fully outside it) yields an
// empty range (cx1 < cx0). Callers iterate rows then columns and fetch
// buckets with Cell — loop-based so hot paths stay closure-free:
//
//	cx0, cy0, cx1, cy1 := g.CellRange(r)
//	for cy := cy0; cy <= cy1; cy++ {
//		for cx := cx0; cx <= cx1; cx++ {
//			for _, i := range g.Cell(cx, cy) { … }
//		}
//	}
func (g *Grid) CellRange(r Rect) (cx0, cy0, cx1, cy1 int) {
	if g.cols == 0 || r.Max.X < g.min.X || r.Max.Y < g.min.Y {
		return 0, 0, -1, -1
	}
	cx0, cy0 = g.cellOf(r.Min)
	cx1, cy1 = g.cellOf(r.Max)
	return cx0, cy0, cx1, cy1
}

// Cell returns the point indices bucketed in cell (cx, cy), in the
// order the points were given to BuildGrid. The slice is shared with
// the Grid and must not be modified.
func (g *Grid) Cell(cx, cy int) []int32 { return g.cells[cy*g.cols+cx] }
