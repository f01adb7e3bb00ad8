package olap

import (
	"fmt"
	"sort"

	"repro/pkg/hod/wire"
)

// referenceAnswer is the evaluator as it was before ranks were cached
// and cells counting-sorted: every dictionary re-sorted per query, the
// matched cells ordered with sort.Slice, groups folded through a map
// keyed IntCube. It shares only the where-filter (View.collect) and
// the argument checks with Answer, and is kept as the oracle of
// TestAnswerMatchesReference.
func referenceAnswer(v View, q Query) (Result, error) {
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
		res.Cells, res.TotalCells, err = refSlice(v, q.Where)
	case wire.CubeOpRollup:
		if q.Dim != "" {
			return Result{}, fmt.Errorf("%w: rollup takes keep dims, not a target dim", ErrSchema)
		}
		res.Dims = append([]string(nil), q.Keep...)
		res.Cells, res.TotalCells, err = refGroupBy(v, q.Where, q.Keep)
	case wire.CubeOpMembers:
		if len(q.Where) > 0 || len(q.Keep) > 0 {
			return Result{}, fmt.Errorf("%w: members takes only a dim", ErrSchema)
		}
		res.Members, res.TotalCells, err = refMembers(v, q.Dim)
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
		res.Dims = nil
		for _, d := range v.Dims {
			if _, ok := q.Where[d]; ok || d == q.Dim {
				res.Dims = append(res.Dims, d)
			}
		}
		res.Cells, res.TotalCells, err = refGroupBy(v, q.Where, res.Dims)
	default:
		return Result{}, fmt.Errorf("%w: unknown cube op %q (want slice|rollup|members|drilldown)", ErrSchema, res.Op)
	}
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// refOrder ranks every dimension's members by name, taken per query
// after the scan.
type refOrder struct {
	names [][]string
	rank  [][]int32
}

func newRefOrder(v View) refOrder {
	o := refOrder{names: make([][]string, len(v.Dict)), rank: make([][]int32, len(v.Dict))}
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

func (o refOrder) sort(cells []IntCell) {
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

func (o refOrder) wire(cells []IntCell) []wire.CubeCell {
	if len(cells) == 0 {
		return nil
	}
	o.sort(cells)
	n := len(o.names)
	coords := make([]string, len(cells)*n)
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

func refSlice(v View, where map[string]string) ([]wire.CubeCell, int, error) {
	cells, total, err := v.collect(where)
	if err != nil {
		return nil, 0, err
	}
	return newRefOrder(v).wire(cells), total, nil
}

func refGroupBy(v View, where map[string]string, keep []string) ([]wire.CubeCell, int, error) {
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
	o := newRefOrder(v)
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
	var kept refOrder
	for _, idx := range keepIdx {
		kept.names = append(kept.names, o.names[idx])
		kept.rank = append(kept.rank, o.rank[idx])
	}
	cells = cells[:0]
	grouped.Scan(func(c *IntCell) { cells = append(cells, *c) })
	return kept.wire(cells), total, nil
}

func refMembers(v View, dim string) ([]string, int, error) {
	d, err := v.dim(dim)
	if err != nil {
		return nil, 0, err
	}
	var seen []bool
	total := v.Scan(nil, func(c *IntCell) {
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
