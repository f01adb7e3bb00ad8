// Package olap implements a small in-memory OLAP cube — the substrate
// the UOA detector family analyses ("an Online Analytical Processing
// (OLAP) cube can be analyzed … with each cell as a measure", paper §3).
// It supports dimensions with discrete members, measure aggregation,
// roll-up, slicing and subspace (group-by) iteration.
//
// There is one cell store (IntCube, int-coordinate cells) and one
// evaluator (View, in answer.go). Cube is the string-facing way in: a
// dictionary per dimension over one IntCube.
package olap

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/intern"
	"repro/pkg/hod/wire"
)

// ErrSchema is returned for schema violations (unknown dimensions,
// wrong coordinate arity).
var ErrSchema = errors.New("olap: schema violation")

// ErrNonFinite is returned when a fact's measure is NaN or ±Inf. A
// single non-finite measure would poison a cell's Sum/Min/Max forever
// (aggregates cannot retract an observation), so the cube refuses it
// at the door — the same policy the serving layer's ingest validation
// applies to sample values.
var ErrNonFinite = errors.New("olap: non-finite measure")

// keySep is refused inside coordinate members: the serving layer vets
// every identifier against control characters, and a cube built from
// strings must not hold a coordinate the served cube never could.
const keySep = '\x1f'

// Cube builds a cube from string coordinates: it interns each member
// into a per-dimension dictionary and folds into one IntCube, so the
// gates on a fact and the answers to a query are IntCube's and View's.
type Cube struct {
	dims  []string
	dict  []*intern.DynTable
	cells *IntCube
	ranks Ranks
}

// New creates a cube with the given dimension names — at most as many
// as an IntCoord holds.
func New(dims ...string) (*Cube, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("%w: cube needs at least one dimension", ErrSchema)
	}
	if len(dims) > len(IntCoord{}) {
		return nil, fmt.Errorf("%w: %d dimensions, at most %d", ErrSchema, len(dims), len(IntCoord{}))
	}
	c := &Cube{dims: append([]string(nil), dims...), cells: NewIntCube()}
	for i, d := range dims {
		for _, prev := range dims[:i] {
			if prev == d {
				return nil, fmt.Errorf("%w: duplicate dimension %q", ErrSchema, d)
			}
		}
		c.dict = append(c.dict, intern.NewDyn(nil))
	}
	return c, nil
}

// Dims returns the dimension names in order.
func (c *Cube) Dims() []string { return append([]string(nil), c.dims...) }

// view is the cube as the evaluator sees it.
func (c *Cube) view() View {
	dict := make([]Dim, len(c.dict))
	for d, t := range c.dict {
		dict[d] = t
	}
	scan := func(_ []Pin, visit func(*IntCell)) int { return c.cells.Scan(visit) }
	return View{Dims: c.dims, Dict: dict, Scan: scan, Ranks: &c.ranks}
}

// intern vets a string coordinate and resolves it to ids, growing the
// dictionaries on first sight of a member.
func (c *Cube) intern(coord []string) (IntCoord, error) {
	var ids IntCoord
	if len(coord) != len(c.dict) {
		return ids, fmt.Errorf("%w: coordinate arity %d, want %d", ErrSchema, len(coord), len(c.dict))
	}
	for d, m := range coord {
		if strings.ContainsRune(m, keySep) {
			return ids, fmt.Errorf("%w: member %q contains the reserved key separator", ErrSchema, m)
		}
		ids[d] = c.dict[d].Intern(m)
	}
	return ids, nil
}

// at names the coordinate an IntCube refusal happened at.
func at(err error, coord []string) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w at %v", err, coord)
}

// AddFact folds one measure value into the cell at coord. Non-finite
// measures are rejected with ErrNonFinite.
func (c *Cube) AddFact(coord []string, value float64) error {
	ids, err := c.intern(coord)
	if err != nil {
		return err
	}
	return at(c.cells.AddFact(ids, value), coord)
}

// AddAggregate merges one pre-aggregated cell into the cube. The
// aggregate must be finite and hold at least one observation.
func (c *Cube) AddAggregate(coord []string, count int, sum, min, max float64) error {
	ids, err := c.intern(coord)
	if err != nil {
		return err
	}
	return at(c.cells.AddAggregate(ids, count, sum, min, max), coord)
}

// CellAt returns the cell at the exact coordinate, or nil.
func (c *Cube) CellAt(coord []string) *IntCell {
	if len(coord) != len(c.dict) {
		return nil
	}
	var ids IntCoord
	for d, m := range coord {
		id, ok := c.dict[d].ID(m)
		if !ok {
			return nil
		}
		ids[d] = id
	}
	return c.cells.CellAt(ids)
}

// Cells returns all cells in deterministic coordinate order.
func (c *Cube) Cells() []wire.CubeCell {
	cells, _, _ := c.view().slice(nil) // no constraint, so no unknown dimension
	return cells
}

// Len returns the number of materialised cells.
func (c *Cube) Len() int { return c.cells.Len() }

// Slice returns the cells whose coordinate matches all the given
// dimension=member constraints, in deterministic coordinate order.
func (c *Cube) Slice(where map[string]string) ([]wire.CubeCell, error) {
	cells, _, err := c.view().slice(where)
	return cells, err
}

// RollUp aggregates the cube onto the given subset of dimensions,
// merging all members of the dropped ones.
func (c *Cube) RollUp(keep ...string) ([]wire.CubeCell, error) {
	return c.GroupBy(nil, keep)
}

// GroupBy filters the cube by the dimension=member constraints and
// aggregates the matching cells onto the keep dimensions — slice and
// roll-up in one pass. Coordinates of the returned cells run along
// keep.
func (c *Cube) GroupBy(where map[string]string, keep []string) ([]wire.CubeCell, error) {
	cells, _, err := c.view().groupBy(where, keep)
	return cells, err
}

// Members returns the distinct members of a dimension in sorted order.
func (c *Cube) Members(dim string) ([]string, error) {
	members, _, err := c.view().members(dim)
	return members, err
}

// Answer evaluates one query against the cube.
func (c *Cube) Answer(q Query) (Result, error) { return c.view().Answer(q) }

// Subspaces enumerates every non-empty subset of dimensions (the cuboid
// lattice) ordered by ascending dimensionality — the search space of
// "mining approximate top-k subspace anomalies".
func (c *Cube) Subspaces() [][]string {
	n := len(c.dims)
	var out [][]string
	for mask := 1; mask < 1<<n; mask++ {
		var dims []string
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				dims = append(dims, c.dims[i])
			}
		}
		out = append(out, dims)
	}
	sort.SliceStable(out, func(i, j int) bool { return len(out[i]) < len(out[j]) })
	return out
}
