package olap

import (
	"fmt"
	"math"
)

// IntCube is the package's one cell store. Coordinates are fixed-arity
// arrays of interned int32 ids, so a cell lookup is one array-keyed map
// access with no allocation — what the serving layer's fold path needs
// at record rate. Member names live outside it, in a dictionary (Dim):
// the serving layer's per-plant intern tables, or the tables a Cube
// grows as strings arrive. The evaluator (View) filters, orders and
// groups on ids and turns only answer cells back into names.

// IntCoord is one interned cube coordinate, one id per dimension in
// dimension order. Its arity bounds every cube's dimensionality; a
// cube of fewer dimensions leaves the tail zero. The serving cube's
// order is line, machine, job, phase, sensor.
type IntCoord [5]int32

// IntCell aggregates the facts sharing one interned coordinate.
type IntCell struct {
	Coord IntCoord
	Count int
	Sum   float64
	Min   float64
	Max   float64
}

// Mean returns the cell's mean measure.
func (c *IntCell) Mean() float64 {
	if c.Count == 0 {
		return 0
	}
	return c.Sum / float64(c.Count)
}

// Preallocated rejections: the per-sample fold path must not allocate
// even when refusing input. They carry no coordinate — ids mean nothing
// to a reader, so callers holding the names attach them.
var (
	errObserveNonFinite = fmt.Errorf("%w: non-finite observation", ErrNonFinite)
	errSumOverflow      = fmt.Errorf("%w: sum overflow", ErrNonFinite)
)

// Observe folds one measure into the cell in place — the fast path for
// callers streaming runs of samples into one cell (they look the cell
// up once). NaN and ±Inf are refused with ErrNonFinite.
//
//hod:hotpath
func (c *IntCell) Observe(value float64) error {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return errObserveNonFinite
	}
	return c.merge(1, value, value, value)
}

// merge folds a vetted aggregate into the cell, or refuses it whole.
func (c *IntCell) merge(count int, sum, min, max float64) error {
	merged := c.Sum + sum
	if math.IsInf(merged, 0) {
		// Finite inputs can still overflow the accumulated sum; folding
		// it would poison the cell forever, so refuse it and keep the
		// every-cell-holds-finite-aggregates invariant.
		return errSumOverflow
	}
	if c.Count == 0 || min < c.Min {
		c.Min = min
	}
	if c.Count == 0 || max > c.Max {
		c.Max = max
	}
	c.Count += count
	c.Sum = merged
	return nil
}

// IntCube is a dense-logical, sparse-physical cube over interned
// coordinates: cells exist only once a fact lands in them. They are
// stored by value in fixed-size pages, in creation order, and found
// through an index by coordinate: a scan walks memory in order, the
// store holds no pointer for the collector to trace, and a cell never
// moves once made, so a *IntCell stays good.
type IntCube struct {
	index map[IntCoord]int32 // coordinate → cell number
	pages [][]IntCell        // cell number n at pages[n/cellPage][n%cellPage]
	n     int
}

// cellPage is the number of cells per page.
const cellPage = 256

// NewIntCube returns an empty interned cube.
func NewIntCube() *IntCube {
	return &IntCube{index: make(map[IntCoord]int32)}
}

func (c *IntCube) at(n int32) *IntCell { return &c.pages[n/cellPage][n%cellPage] }

// add materialises the cell at coord, which must be new, holding agg.
func (c *IntCube) add(coord IntCoord, agg IntCell) {
	if c.n%cellPage == 0 {
		c.pages = append(c.pages, make([]IntCell, cellPage))
	}
	agg.Coord = coord
	c.pages[c.n/cellPage][c.n%cellPage] = agg
	c.index[coord] = int32(c.n)
	c.n++
}

// CellAt returns the cell at coord, or nil.
func (c *IntCube) CellAt(coord IntCoord) *IntCell {
	if n, ok := c.index[coord]; ok {
		return c.at(n)
	}
	return nil
}

// AddFact folds one measure into the cell at coord, creating it on
// first touch. Non-finite measures and sum overflow are refused with
// ErrNonFinite, and a refused first fact materialises no cell.
func (c *IntCube) AddFact(coord IntCoord, value float64) error {
	if n, ok := c.index[coord]; ok {
		return c.at(n).Observe(value)
	}
	var fresh IntCell
	if err := fresh.Observe(value); err != nil {
		return err
	}
	c.add(coord, fresh)
	return nil
}

// AddAggregate merges one pre-aggregated cell — the primitive behind
// Cube.AddAggregate. The aggregate must be finite and hold at least
// one observation.
func (c *IntCube) AddAggregate(coord IntCoord, count int, sum, min, max float64) error {
	if count <= 0 {
		return fmt.Errorf("%w: aggregate count %d", ErrSchema, count)
	}
	for _, v := range []float64{sum, min, max} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %v", ErrNonFinite, v)
		}
	}
	if n, ok := c.index[coord]; ok {
		return c.at(n).merge(count, sum, min, max)
	}
	// A fresh cell cannot overflow: its sum is the vetted input.
	var fresh IntCell
	_ = fresh.merge(count, sum, min, max)
	c.add(coord, fresh)
	return nil
}

// Len returns the number of materialised cells.
func (c *IntCube) Len() int { return c.n }

// Scan calls visit, when it is not nil, on every cell in creation
// order and returns the number of cells.
func (c *IntCube) Scan(visit func(*IntCell)) int {
	if visit != nil {
		for p, page := range c.pages {
			for i := range page[:min(cellPage, c.n-p*cellPage)] {
				visit(&page[i])
			}
		}
	}
	return c.n
}
