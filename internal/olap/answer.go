package olap

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

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
// intern.Table and intern.DynTable are one. A dictionary only ever
// appends names, so its length is its version; Ranks relies on that
// and on comparing dictionaries by identity (implementations are
// pointers).
type Dim interface {
	ID(name string) (int32, bool)
	Names() []string // id → name; read-only
	Len() int
}

// View is a cube as the evaluator sees it: the dimension names, a
// dictionary per dimension, and the cells — of one IntCube, or of
// several that share no coordinate (the serving layer's shards).
type View struct {
	Dims []string
	Dict []Dim
	// Scan calls visit, when it is not nil, on every cell that may meet
	// the pins, and returns the number of all cells, pinned or not
	// (IntCube.Scan, or a loop of it). It may skip cells it knows fail a
	// pin — a shard holding other machines — and may visit cells that
	// fail one: the evaluator checks every cell it is handed. The owner
	// may hold a lock around the visits, so visit only compares and
	// copies.
	Scan func(pins []Pin, visit func(*IntCell)) int
	// Ranks is the dictionaries' owner's rank cache; nil ranks every
	// dictionary afresh for the one query.
	Ranks *Ranks
}

// Pin constrains a scan to the cells whose coordinate holds ID on
// dimension Dim (a position in IntCoord).
type Pin struct {
	Dim int
	ID  int32
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
	pins := make([]Pin, len(dims))
	known := true
	for i, d := range dims {
		idx, err := v.dim(d)
		if err != nil {
			return nil, 0, err
		}
		id, ok := v.Dict[idx].ID(where[d])
		known = known && ok
		pins[i] = Pin{idx, id}
	}
	if !known {
		return nil, v.Scan(nil, nil), nil
	}
	var cells []IntCell
	if len(pins) == 0 {
		cells = make([]IntCell, 0, v.Scan(nil, nil)) // every cell matches
	}
	total := v.Scan(pins, func(c *IntCell) {
		for _, p := range pins {
			if c.Coord[p.Dim] != p.ID {
				return
			}
		}
		cells = append(cells, *c)
	})
	return cells, total, nil
}

// Ranks caches, per dimension, the position of every member's name
// among its dictionary's names. Ordering cells by rank is ordering
// their coordinates element-wise by name, whatever ids the dictionary
// happened to assign — which fixes the cell order of an answer and,
// with it, the order float sums fold in. A dictionary is re-ranked
// only when it grew (its new names are sorted and merged in) or was
// replaced, so a query on settled dictionaries sorts no names. The
// zero value is ready; it is safe for concurrent queries while ingest
// appends to the dictionaries.
type Ranks struct {
	mu    sync.Mutex
	dicts [len(IntCoord{})]*rankTable
}

// rankTable is one dictionary's ranks at one length. It is never
// changed once built: a query keeps the tables it was handed while a
// later query builds their successors.
type rankTable struct {
	dict   Dim
	names  []string // id → name
	byName []int32  // ids in name order
	rank   []int32  // id → position in byName
}

// order is the rank tables of one query, one per dimension.
type order [len(IntCoord{})]*rankTable

// tables returns the current rank table of every dictionary. It is
// called after the scan, so each covers every id the scan saw: ids are
// interned before a cell can hold them.
func (r *Ranks) tables(dicts []Dim) order {
	r.mu.Lock()
	defer r.mu.Unlock()
	var o order
	for d, dict := range dicts {
		t := r.dicts[d]
		if t == nil || t.dict != dict || len(t.names) != dict.Len() {
			t = rank(dict, t)
			r.dicts[d] = t
		}
		o[d] = t
	}
	return o
}

// rank ranks dict's names, reusing prev's ranking of the ones it
// already holds when prev is the same dictionary at an earlier length.
func rank(dict Dim, prev *rankTable) *rankTable {
	names := dict.Names()
	var ranked []int32
	if prev != nil && prev.dict == dict && len(prev.names) <= len(names) {
		ranked = prev.byName
	}
	fresh := make([]int32, len(names)-len(ranked))
	for i := range fresh {
		fresh[i] = int32(len(ranked) + i)
	}
	slices.SortFunc(fresh, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	byName := make([]int32, 0, len(names))
	i, j := 0, 0
	for i < len(ranked) && j < len(fresh) {
		if names[fresh[j]] < names[ranked[i]] {
			byName = append(byName, fresh[j])
			j++
		} else {
			byName = append(byName, ranked[i])
			i++
		}
	}
	byName = append(append(byName, ranked[i:]...), fresh[j:]...)
	pos := make([]int32, len(names))
	for p, id := range byName {
		pos[id] = int32(p)
	}
	return &rankTable{dict: dict, names: names, byName: byName, rank: pos}
}

// order returns the query's rank tables, from the owner's cache when
// there is one.
func (v View) order() order {
	r := v.Ranks
	if r == nil {
		r = new(Ranks)
	}
	return r.tables(v.Dict)
}

// sort returns the positions of cells ordered by the ranks of dims,
// most significant first. It is an LSD radix sort whose digits are
// dense ranks, run over a position array, so no cell moves. Adjacent
// dimensions share a digit while the product of their rank spans stays
// within the cell count (or 1 024), so a pass costs O(cells) however
// wide the digit; a dimension every cell agrees on spans one rank and
// costs nothing.
func (o *order) sort(cells []IntCell, dims []int) []int32 {
	n := len(cells)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	if n < 2 {
		return idx
	}
	var lo, span [len(IntCoord{})]int32 // by position in dims
	for k, d := range dims {
		rank := o[d].rank
		l, h := rank[cells[0].Coord[d]], rank[cells[0].Coord[d]]
		for i := range cells {
			r := rank[cells[i].Coord[d]]
			l, h = min(l, r), max(h, r)
		}
		lo[k], span[k] = l, h-l+1
	}
	limit := int64(max(n, 1<<10))
	keys := make([]int32, n) // by cell, not by position
	tmp := make([]int32, n)
	var count []int32
	for end := len(dims); end > 0; {
		// The digit is dims[start:end]: as many dimensions as fit.
		start, width := end-1, int64(span[end-1])
		for start > 0 && width*int64(span[start-1]) <= limit {
			start--
			width *= int64(span[start])
		}
		if width > 1 {
			for i := range cells {
				key := int32(0)
				for k := start; k < end; k++ {
					key = key*span[k] + o[dims[k]].rank[cells[i].Coord[dims[k]]] - lo[k]
				}
				keys[i] = key
			}
			if cap(count) < int(width) {
				count = make([]int32, width)
			}
			count = count[:width]
			clear(count)
			for _, key := range keys {
				count[key]++
			}
			next := int32(0)
			for key, c := range count {
				count[key] = next
				next += c
			}
			for _, i := range idx {
				key := keys[i]
				tmp[count[key]] = i
				count[key]++
			}
			idx, tmp = tmp, idx
		}
		end = start
	}
	return idx
}

// wire translates cells, taken in the order perm gives (nil: as they
// are), into answer cells — the one place ids turn back into names.
// Coordinate position k of a cell holds an id of dimension dims[k].
func (o *order) wire(cells []IntCell, perm []int32, dims []int) []wire.CubeCell {
	if len(cells) == 0 {
		return nil
	}
	n := len(dims)
	coords := make([]string, len(cells)*n) // every cell's coordinate, one allocation
	out := make([]wire.CubeCell, len(cells))
	for i := range out {
		c := &cells[i]
		if perm != nil {
			c = &cells[perm[i]]
		}
		coord := coords[i*n : (i+1)*n : (i+1)*n]
		for k, d := range dims {
			coord[k] = o[d].names[c.Coord[k]]
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
	dims := make([]int, len(v.Dims))
	for d := range dims {
		dims[d] = d
	}
	o := v.order()
	return o.wire(cells, o.sort(cells, dims), dims), total, nil
}

// groupBy aggregates the matching cells onto the keep dimensions — the
// shared engine behind roll-up (no constraints) and drill-down
// (constraints plus one expanded dimension). The matching cells are
// ordered by the kept dimensions, in keep order, and then by the rest
// in cube order, so each group is one run in which its cells come in
// full coordinate order: a float sum is not associative, and folding a
// group in that order keeps scan order out of its last bits. Runs are
// folded in turn, so the groups come out in kept-coordinate order.
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
	dims := append([]int(nil), keepIdx...)
	for d := range v.Dims {
		if !slices.Contains(keepIdx, d) {
			dims = append(dims, d)
		}
	}
	perm := o.sort(cells, dims)
	var groups []IntCell
	for start := 0; start < len(perm); {
		first := &cells[perm[start]]
		var g IntCell
		for k, d := range keepIdx {
			g.Coord[k] = first.Coord[d]
		}
		end := start
		for ; end < len(perm); end++ {
			c := &cells[perm[end]]
			if !sameOn(&c.Coord, &first.Coord, keepIdx) {
				break
			}
			if err := g.merge(c.Count, c.Sum, c.Min, c.Max); err != nil {
				return nil, 0, err
			}
		}
		groups = append(groups, g)
		start = end
	}
	return o.wire(groups, nil, keepIdx), total, nil
}

// sameOn reports whether two coordinates agree on every dimension of
// dims.
func sameOn(a, b *IntCoord, dims []int) bool {
	for _, d := range dims {
		if a[d] != b[d] {
			return false
		}
	}
	return true
}

// members answers with the distinct members of one dimension, sorted,
// and the count of all cells.
func (v View) members(dim string) ([]string, int, error) {
	d, err := v.dim(dim)
	if err != nil {
		return nil, 0, err
	}
	var seen []bool // by id
	total := v.Scan(nil, func(c *IntCell) {
		id := int(c.Coord[d])
		if id >= len(seen) {
			seen = append(seen, make([]bool, id+1-len(seen))...)
		}
		seen[id] = true
	})
	if len(seen) == 0 {
		return nil, total, nil
	}
	t := v.order()[d]
	var out []string
	for _, id := range t.byName {
		if int(id) < len(seen) && seen[id] {
			out = append(out, t.names[id])
		}
	}
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
