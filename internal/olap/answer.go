package olap

import (
	"fmt"
	"sort"

	"repro/pkg/hod/wire"
)

// Query is one cube question: an operation plus its operands. The
// zero value of everything but Op is legal where the op allows it.
//
//	slice      Where (optional)           cells at full dimensionality
//	rollup     Keep (required), Where     aggregate onto the kept dims
//	members    Dim (required)             distinct members of one dim
//	drilldown  Dim (required), Where      expand one dim within a slice
type Query struct {
	Op    string            // wire.CubeOp*; "" means slice
	Where map[string]string // dimension=member constraints
	Keep  []string          // rollup: dimensions to keep
	Dim   string            // members/drilldown: target dimension
}

// Result is the evaluated answer, already in wire shape minus the
// plant id (the serving layer and the embedded SDK cube both wrap it
// into a wire.CubeResponse, so the two paths are provably equal).
type Result struct {
	Op         string
	Dims       []string
	Where      []string
	Members    []string
	Cells      []wire.CubeCell
	TotalCells int
}

// Dim is one dimension's dictionary: member name ↔ interned id. Both
// intern.Table and intern.DynTable are one.
type Dim interface {
	ID(name string) (int32, bool)
	Names() []string // id → name; read-only
}

// View is a cube as the evaluator sees it: the dimension names, a
// dictionary per dimension, and the cells — of one IntCube, or of
// several that share no coordinate (the serving layer's shards).
type View struct {
	Dims []string
	Dict []Dim
	// Scan calls visit, when it is not nil, on every cell and returns
	// the number of cells (IntCube.Scan, or a loop of it). The owner may
	// hold a lock around the visits, so visit only compares and copies.
	Scan func(visit func(*IntCell)) int
}

func (v View) dim(name string) (int, error) {
	for i, d := range v.Dims {
		if d == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown dimension %q", ErrSchema, name)
}

// collect copies out the cells meeting every dimension=member
// constraint, in scan order, and counts all cells. Members resolve to
// ids once; one the dictionary never saw is in no cell, so the answer
// is empty without visiting any.
func (v View) collect(where map[string]string) ([]IntCell, int, error) {
	dims := make([]string, 0, len(where))
	for d := range where {
		dims = append(dims, d)
	}
	sort.Strings(dims)
	type pin struct {
		dim int
		id  int32
	}
	pins := make([]pin, len(dims))
	known := true
	for i, d := range dims {
		idx, err := v.dim(d)
		if err != nil {
			return nil, 0, err
		}
		id, ok := v.Dict[idx].ID(where[d])
		known = known && ok
		pins[i] = pin{idx, id}
	}
	if !known {
		return nil, v.Scan(nil), nil
	}
	var cells []IntCell
	total := v.Scan(func(c *IntCell) {
		for _, p := range pins {
			if c.Coord[p.dim] != p.id {
				return
			}
		}
		cells = append(cells, *c)
	})
	return cells, total, nil
}

// order ranks every dimension's members by name: for each dimension,
// id → name and id → position of that name among the sorted names.
// Ordering cells by rank is ordering their coordinates element-wise by
// name, whatever ids the dictionary happened to assign — which fixes
// the cell order of an answer and, with it, the order float sums fold
// in. It is taken per query, after the scan: a dictionary that grows
// under ingest then covers every id the scan saw.
type order struct {
	names [][]string
	rank  [][]int32
}

func (v View) order() order {
	o := order{names: make([][]string, len(v.Dict)), rank: make([][]int32, len(v.Dict))}
	for d, dict := range v.Dict {
		names := dict.Names()
		byName := make([]int32, len(names))
		for id := range byName {
			byName[id] = int32(id)
		}
		sort.Slice(byName, func(i, j int) bool { return names[byName[i]] < names[byName[j]] })
		rank := make([]int32, len(names))
		for pos, id := range byName {
			rank[id] = int32(pos)
		}
		o.names[d], o.rank[d] = names, rank
	}
	return o
}

func (o order) sort(cells []IntCell) {
	sort.Slice(cells, func(i, j int) bool {
		a, b := &cells[i].Coord, &cells[j].Coord
		for d, rank := range o.rank {
			if a[d] != b[d] {
				return rank[a[d]] < rank[b[d]]
			}
		}
		return false
	})
}

// wire sorts the cells and translates them — the one place ids turn
// back into names.
func (o order) wire(cells []IntCell) []wire.CubeCell {
	if len(cells) == 0 {
		return nil
	}
	o.sort(cells)
	n := len(o.names)
	coords := make([]string, len(cells)*n) // every cell's coordinate, one allocation
	out := make([]wire.CubeCell, len(cells))
	for i := range cells {
		c := &cells[i]
		coord := coords[i*n : (i+1)*n : (i+1)*n]
		for d := range coord {
			coord[d] = o.names[d][c.Coord[d]]
		}
		out[i] = wire.CubeCell{
			Coord: coord,
			Count: c.Count, Sum: c.Sum, Mean: c.Mean(),
			Min: c.Min, Max: c.Max,
		}
	}
	return out
}

// slice answers with the matching cells at full dimensionality, in
// coordinate order, and the count of all cells.
func (v View) slice(where map[string]string) ([]wire.CubeCell, int, error) {
	cells, total, err := v.collect(where)
	if err != nil {
		return nil, 0, err
	}
	return v.order().wire(cells), total, nil
}

// groupBy aggregates the matching cells onto the keep dimensions — the
// shared engine behind roll-up (no constraints) and drill-down
// (constraints plus one expanded dimension). Matching cells are folded
// in sorted coordinate order: a float sum is not associative, so scan
// order would otherwise leak last-ulp jitter into equal queries.
func (v View) groupBy(where map[string]string, keep []string) ([]wire.CubeCell, int, error) {
	if len(keep) == 0 {
		return nil, 0, fmt.Errorf("%w: group-by must keep at least one dimension", ErrSchema)
	}
	keepIdx := make([]int, len(keep))
	for i, d := range keep {
		idx, err := v.dim(d)
		if err != nil {
			return nil, 0, err
		}
		for _, prev := range keepIdx[:i] {
			if prev == idx {
				return nil, 0, fmt.Errorf("%w: duplicate dimension %q", ErrSchema, d)
			}
		}
		keepIdx[i] = idx
	}
	cells, total, err := v.collect(where)
	if err != nil {
		return nil, 0, err
	}
	o := v.order()
	o.sort(cells)
	grouped := NewIntCube()
	for i := range cells {
		c := &cells[i]
		var coord IntCoord
		for k, idx := range keepIdx {
			coord[k] = c.Coord[idx]
		}
		if err := grouped.AddAggregate(coord, c.Count, c.Sum, c.Min, c.Max); err != nil {
			return nil, 0, err
		}
	}
	var kept order
	for _, idx := range keepIdx {
		kept.names = append(kept.names, o.names[idx])
		kept.rank = append(kept.rank, o.rank[idx])
	}
	cells = cells[:0]
	grouped.Scan(func(c *IntCell) { cells = append(cells, *c) })
	return kept.wire(cells), total, nil
}

// members answers with the distinct members of one dimension, sorted,
// and the count of all cells.
func (v View) members(dim string) ([]string, int, error) {
	d, err := v.dim(dim)
	if err != nil {
		return nil, 0, err
	}
	var seen []bool // by id
	total := v.Scan(func(c *IntCell) {
		id := int(c.Coord[d])
		if id >= len(seen) {
			seen = append(seen, make([]bool, id+1-len(seen))...)
		}
		seen[id] = true
	})
	names := v.Dict[d].Names()
	var out []string
	for id, ok := range seen {
		if ok {
			out = append(out, names[id])
		}
	}
	sort.Strings(out)
	return out, total, nil
}

// Answer evaluates one query. Cells are returned in deterministic
// coordinate order; Where echoes the constraints sorted by dimension
// name.
func (v View) Answer(q Query) (Result, error) {
	res := Result{Op: q.Op, Where: echoWhere(q.Where), Dims: append([]string(nil), v.Dims...)}
	if res.Op == "" {
		res.Op = wire.CubeOpSlice
	}
	var err error
	switch res.Op {
	case wire.CubeOpSlice:
		if len(q.Keep) > 0 || q.Dim != "" {
			return Result{}, fmt.Errorf("%w: slice takes only where constraints", ErrSchema)
		}
		res.Cells, res.TotalCells, err = v.slice(q.Where)
	case wire.CubeOpRollup:
		if q.Dim != "" {
			return Result{}, fmt.Errorf("%w: rollup takes keep dims, not a target dim", ErrSchema)
		}
		res.Dims = append([]string(nil), q.Keep...)
		res.Cells, res.TotalCells, err = v.groupBy(q.Where, q.Keep)
	case wire.CubeOpMembers:
		if len(q.Where) > 0 || len(q.Keep) > 0 {
			return Result{}, fmt.Errorf("%w: members takes only a dim", ErrSchema)
		}
		res.Members, res.TotalCells, err = v.members(q.Dim)
	case wire.CubeOpDrilldown:
		if len(q.Keep) > 0 {
			return Result{}, fmt.Errorf("%w: drilldown takes a dim plus where constraints", ErrSchema)
		}
		if _, err = v.dim(q.Dim); err != nil {
			return Result{}, err
		}
		if _, pinned := q.Where[q.Dim]; pinned {
			return Result{}, fmt.Errorf("%w: drilldown dimension %q is pinned by a where constraint", ErrSchema, q.Dim)
		}
		// Expand along Dim inside the slice: keep the constrained
		// dimensions (self-describing coordinates) plus the drill
		// target, in cube dimension order.
		res.Dims = nil
		for _, d := range v.Dims {
			if _, ok := q.Where[d]; ok || d == q.Dim {
				res.Dims = append(res.Dims, d)
			}
		}
		res.Cells, res.TotalCells, err = v.groupBy(q.Where, res.Dims)
	default:
		return Result{}, fmt.Errorf("%w: unknown cube op %q (want slice|rollup|members|drilldown)", ErrSchema, res.Op)
	}
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// echoWhere renders a constraint set as sorted "dim=member" strings.
func echoWhere(where map[string]string) []string {
	if len(where) == 0 {
		return nil
	}
	out := make([]string, 0, len(where))
	for d, m := range where {
		out = append(out, d+"="+m)
	}
	sort.Strings(out)
	return out
}
