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
// coordinates: cells exist only once a fact lands in them.
type IntCube struct {
	cells map[IntCoord]*IntCell
}

// NewIntCube returns an empty interned cube.
func NewIntCube() *IntCube {
	return &IntCube{cells: make(map[IntCoord]*IntCell)}
}

// CellAt returns the cell at coord, or nil.
func (c *IntCube) CellAt(coord IntCoord) *IntCell { return c.cells[coord] }

// AddFact folds one measure into the cell at coord, creating it on
// first touch. Non-finite measures and sum overflow are refused with
// ErrNonFinite, and a refused first fact materialises no cell.
func (c *IntCube) AddFact(coord IntCoord, value float64) error {
	cell, ok := c.cells[coord]
	if !ok {
		cell = &IntCell{Coord: coord}
	}
	if err := cell.Observe(value); err != nil {
		return err
	}
	if !ok {
		c.cells[coord] = cell
	}
	return nil
}

// AddAggregate merges one pre-aggregated cell — the primitive behind
// group-by and snapshot restore. The aggregate must be finite and hold
// at least one observation.
func (c *IntCube) AddAggregate(coord IntCoord, count int, sum, min, max float64) error {
	if count <= 0 {
		return fmt.Errorf("%w: aggregate count %d", ErrSchema, count)
	}
	for _, v := range []float64{sum, min, max} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %v", ErrNonFinite, v)
		}
	}
	cell, ok := c.cells[coord]
	if !ok {
		// A fresh cell cannot overflow: its sum is the vetted input.
		cell = &IntCell{Coord: coord}
		c.cells[coord] = cell
	}
	return cell.merge(count, sum, min, max)
}

// Len returns the number of materialised cells.
func (c *IntCube) Len() int { return len(c.cells) }

// Scan calls visit, when it is not nil, on every cell in map order and
// returns the number of cells. Callers needing determinism sort what
// they collected.
func (c *IntCube) Scan(visit func(*IntCell)) int {
	if visit != nil {
		for _, cell := range c.cells {
			visit(cell)
		}
	}
	return len(c.cells)
}
