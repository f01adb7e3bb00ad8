package olap

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/pkg/hod/wire"
)

func mustCube(t *testing.T, dims ...string) *Cube {
	t.Helper()
	c, err := New(dims...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cellAt finds the answer cell at coord, or nil.
func cellAt(cells []wire.CubeCell, coord ...string) *wire.CubeCell {
next:
	for i := range cells {
		for d, m := range coord {
			if cells[i].Coord[d] != m {
				continue next
			}
		}
		return &cells[i]
	}
	return nil
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); !errors.Is(err, ErrSchema) {
		t.Fatal("want ErrSchema for no dims")
	}
	if _, err := New("a", "a"); !errors.Is(err, ErrSchema) {
		t.Fatal("want ErrSchema for duplicate dims")
	}
	// An IntCoord holds five ids: that is every cube's dimension limit.
	if _, err := New("a", "b", "c", "d", "e"); err != nil {
		t.Fatalf("five dims: %v", err)
	}
	if _, err := New("a", "b", "c", "d", "e", "f"); !errors.Is(err, ErrSchema) {
		t.Fatalf("six dims: err = %v, want ErrSchema", err)
	}
	c := mustCube(t, "machine", "sensor")
	dims := c.Dims()
	if len(dims) != 2 || dims[0] != "machine" {
		t.Fatalf("dims=%v", dims)
	}
}

func TestAddFactAndCellAt(t *testing.T) {
	c := mustCube(t, "m", "s")
	if err := c.AddFact([]string{"m1"}, 1); !errors.Is(err, ErrSchema) {
		t.Fatal("want ErrSchema for wrong arity")
	}
	for _, v := range []float64{1, 3, 5} {
		if err := c.AddFact([]string{"m1", "temp"}, v); err != nil {
			t.Fatal(err)
		}
	}
	cell := c.CellAt([]string{"m1", "temp"})
	if cell == nil {
		t.Fatal("cell missing")
	}
	if cell.Count != 3 || cell.Sum != 9 || cell.Min != 1 || cell.Max != 5 {
		t.Fatalf("cell=%+v", cell)
	}
	if math.Abs(cell.Mean()-3) > 1e-12 {
		t.Fatalf("mean=%v", cell.Mean())
	}
	if c.CellAt([]string{"zz", "temp"}) != nil {
		t.Fatal("missing cell should be nil")
	}
	if c.CellAt([]string{"m1"}) != nil {
		t.Fatal("wrong arity should be nil")
	}
	if (&IntCell{}).Mean() != 0 {
		t.Fatal("empty cell mean should be 0")
	}
}

func TestCellsDeterministicOrder(t *testing.T) {
	c := mustCube(t, "m")
	c.AddFact([]string{"b"}, 1)
	c.AddFact([]string{"a"}, 2)
	c.AddFact([]string{"c"}, 3)
	cells := c.Cells()
	if len(cells) != 3 || c.Len() != 3 {
		t.Fatalf("cells=%d", len(cells))
	}
	if cells[0].Coord[0] != "a" || cells[2].Coord[0] != "c" {
		t.Fatalf("order wrong: %v %v", cells[0].Coord, cells[2].Coord)
	}
}

func TestSlice(t *testing.T) {
	c := mustCube(t, "m", "s")
	c.AddFact([]string{"m1", "temp"}, 1)
	c.AddFact([]string{"m1", "vib"}, 2)
	c.AddFact([]string{"m2", "temp"}, 3)
	got, err := c.Slice(map[string]string{"m": "m1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("slice=%d cells", len(got))
	}
	if _, err := c.Slice(map[string]string{"nope": "x"}); !errors.Is(err, ErrSchema) {
		t.Fatal("want ErrSchema")
	}
	// A member no fact ever named, and known members no cell combines,
	// are both an empty answer — not an error — that still echoes the
	// constraint and counts the whole cube.
	for name, where := range map[string]map[string]string{
		"unknown member":   {"m": "m9"},
		"pinned but empty": {"m": "m2", "s": "vib"},
	} {
		res, err := c.Answer(Query{Where: where})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Cells != nil || len(res.Where) != len(where) || res.TotalCells != 3 {
			t.Fatalf("%s: result %+v", name, res)
		}
	}
}

func TestRollUp(t *testing.T) {
	c := mustCube(t, "m", "s")
	c.AddFact([]string{"m1", "temp"}, 1)
	c.AddFact([]string{"m1", "vib"}, 3)
	c.AddFact([]string{"m2", "temp"}, 10)
	rolled, err := c.RollUp("m")
	if err != nil {
		t.Fatal(err)
	}
	m1 := cellAt(rolled, "m1")
	if m1 == nil || m1.Count != 2 || m1.Sum != 4 || m1.Min != 1 || m1.Max != 3 {
		t.Fatalf("m1=%+v", m1)
	}
	m2 := cellAt(rolled, "m2")
	if m2 == nil || m2.Count != 1 || m2.Sum != 10 {
		t.Fatalf("m2=%+v", m2)
	}
	if _, err := c.RollUp(); !errors.Is(err, ErrSchema) {
		t.Fatal("want ErrSchema for empty roll-up")
	}
	if _, err := c.RollUp("zzz"); !errors.Is(err, ErrSchema) {
		t.Fatal("want ErrSchema for unknown dim")
	}
}

func TestMembers(t *testing.T) {
	c := mustCube(t, "m", "s")
	c.AddFact([]string{"m2", "temp"}, 1)
	c.AddFact([]string{"m1", "temp"}, 1)
	c.AddFact([]string{"m1", "vib"}, 1)
	ms, err := c.Members("m")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0] != "m1" || ms[1] != "m2" {
		t.Fatalf("members=%v", ms)
	}
	if _, err := c.Members("x"); !errors.Is(err, ErrSchema) {
		t.Fatal("want ErrSchema")
	}
}

func TestSubspacesLattice(t *testing.T) {
	c := mustCube(t, "a", "b", "c")
	subs := c.Subspaces()
	if len(subs) != 7 { // 2³-1
		t.Fatalf("subspaces=%d", len(subs))
	}
	// Ordered by ascending dimensionality.
	for i := 1; i < len(subs); i++ {
		if len(subs[i]) < len(subs[i-1]) {
			t.Fatalf("lattice order broken at %d: %v", i, subs)
		}
	}
}

func TestAddFactRejectsNonFinite(t *testing.T) {
	c := mustCube(t, "m")
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := c.AddFact([]string{"m1"}, v); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("AddFact(%v) = %v, want ErrNonFinite", v, err)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("rejected facts materialised %d cells", c.Len())
	}
	// A finite fact into a cell a non-finite one targeted still works.
	if err := c.AddFact([]string{"m1"}, 2); err != nil {
		t.Fatal(err)
	}
	if cell := c.CellAt([]string{"m1"}); cell.Count != 1 || cell.Sum != 2 {
		t.Fatalf("cell=%+v", cell)
	}
	// AddAggregate applies the same gate, plus a count sanity check.
	if err := c.AddAggregate([]string{"m2"}, 1, math.NaN(), 0, 0); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("AddAggregate NaN sum = %v", err)
	}
	if err := c.AddAggregate([]string{"m2"}, 0, 1, 1, 1); !errors.Is(err, ErrSchema) {
		t.Fatalf("AddAggregate count 0 = %v", err)
	}
	// A member containing the reserved key separator could collide two
	// coordinates onto one cell key; it is a schema violation instead.
	if err := c.AddFact([]string{"a\x1fb"}, 1); !errors.Is(err, ErrSchema) {
		t.Fatalf("AddFact with key separator = %v", err)
	}
	// Finite inputs whose accumulated sum would overflow are refused —
	// a cell never holds a non-finite aggregate.
	if err := c.AddFact([]string{"big"}, 1e308); err != nil {
		t.Fatal(err)
	}
	if err := c.AddFact([]string{"big"}, 1e308); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("sum-overflow AddFact = %v, want ErrNonFinite", err)
	}
	big := c.CellAt([]string{"big"})
	if big.Count != 1 || math.IsInf(big.Sum, 0) {
		t.Fatalf("overflowed fold mutated the cell: %+v", big)
	}
	if err := big.Observe(1e308); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("sum-overflow Observe = %v, want ErrNonFinite", err)
	}
}

func TestGroupByAndDrilldownAnswer(t *testing.T) {
	c := mustCube(t, "line", "machine", "sensor")
	facts := []struct {
		coord []string
		v     float64
	}{
		{[]string{"l1", "m1", "temp"}, 1},
		{[]string{"l1", "m1", "vib"}, 2},
		{[]string{"l1", "m2", "temp"}, 3},
		{[]string{"l2", "m3", "temp"}, 4},
	}
	for _, f := range facts {
		if err := c.AddFact(f.coord, f.v); err != nil {
			t.Fatal(err)
		}
	}
	// GroupBy = slice + roll-up in one pass.
	g, err := c.GroupBy(map[string]string{"line": "l1"}, []string{"machine"})
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 2 {
		t.Fatalf("grouped cells = %d", len(g))
	}
	m1 := cellAt(g, "m1")
	if m1 == nil || m1.Count != 2 || m1.Sum != 3 {
		t.Fatalf("m1=%+v", m1)
	}

	// The drilldown op keeps the constrained dims plus the target, in
	// cube dimension order.
	res, err := c.Answer(Query{Op: "drilldown", Dim: "machine", Where: map[string]string{"line": "l1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dims) != 2 || res.Dims[0] != "line" || res.Dims[1] != "machine" {
		t.Fatalf("drilldown dims = %v", res.Dims)
	}
	if len(res.Cells) != 2 || res.Cells[0].Coord[1] != "m1" || res.Cells[1].Coord[1] != "m2" {
		t.Fatalf("drilldown cells = %+v", res.Cells)
	}
	if len(res.Where) != 1 || res.Where[0] != "line=l1" {
		t.Fatalf("where echo = %v", res.Where)
	}
	if res.TotalCells != c.Len() {
		t.Fatalf("total cells = %d, want %d", res.TotalCells, c.Len())
	}

	// Op validation: drilling into a pinned dim, unknown ops, and
	// mismatched operands are schema errors.
	for name, q := range map[string]Query{
		"pinned dim":      {Op: "drilldown", Dim: "line", Where: map[string]string{"line": "l1"}},
		"unknown op":      {Op: "pivot"},
		"slice with keep": {Op: "slice", Keep: []string{"line"}},
		"rollup with dim": {Op: "rollup", Keep: []string{"line"}, Dim: "machine"},
		"members + where": {Op: "members", Dim: "line", Where: map[string]string{"line": "l1"}},
		"unknown where":   {Where: map[string]string{"galaxy": "g"}},
	} {
		if _, err := c.Answer(q); !errors.Is(err, ErrSchema) {
			t.Fatalf("%s: err = %v, want ErrSchema", name, err)
		}
	}

	// members answers through the same entry point.
	res, err = c.Answer(Query{Op: "members", Dim: "line"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 2 || res.Members[0] != "l1" || res.Members[1] != "l2" {
		t.Fatalf("members = %v", res.Members)
	}
}

// Property: for random fact sets and random constraints, Slice and
// RollUp (GroupBy) conserve Count and Sum against the full cube.
func TestPropertySliceRollUpConservation(t *testing.T) {
	f := func(vals []float64, members []uint8, pin uint8) bool {
		if len(vals) == 0 || len(members) < len(vals) {
			return true
		}
		c := mustCubeQuick()
		var wantCount int
		var wantSum float64
		pinned := string(rune('a' + pin%3))
		var pinCount int
		var pinSum float64
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				continue
			}
			d1 := string(rune('a' + members[i]%3))
			d2 := string(rune('x' + members[i]%2))
			if err := c.AddFact([]string{d1, d2}, v); err != nil {
				return false
			}
			wantCount++
			wantSum += v
			if d1 == pinned {
				pinCount++
				pinSum += v
			}
		}
		if wantCount == 0 {
			return true
		}
		close := func(got, want float64) bool {
			return math.Abs(got-want) < 1e-6*(1+math.Abs(want))
		}
		// Slice at full dimensionality conserves within the constraint.
		sliced, err := c.Slice(map[string]string{"d1": pinned})
		if err != nil {
			return false
		}
		var gotCount int
		var gotSum float64
		for _, cell := range sliced {
			gotCount += cell.Count
			gotSum += cell.Sum
		}
		if gotCount != pinCount || !close(gotSum, pinSum) {
			return false
		}
		// RollUp onto each single dimension conserves the full totals.
		for _, keep := range [][]string{{"d1"}, {"d2"}} {
			rolled, err := c.RollUp(keep...)
			if err != nil {
				return false
			}
			gotCount, gotSum = 0, 0
			for _, cell := range rolled {
				gotCount += cell.Count
				gotSum += cell.Sum
			}
			if gotCount != wantCount || !close(gotSum, wantSum) {
				return false
			}
		}
		// Slice + RollUp composed (GroupBy) conserves within the slice.
		grouped, err := c.GroupBy(map[string]string{"d1": pinned}, []string{"d2"})
		if err != nil {
			return false
		}
		gotCount, gotSum = 0, 0
		for _, cell := range grouped {
			gotCount += cell.Count
			gotSum += cell.Sum
		}
		return gotCount == pinCount && close(gotSum, pinSum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: roll-up preserves total count and sum.
func TestPropertyRollUpConservation(t *testing.T) {
	f := func(vals []float64, members []uint8) bool {
		if len(vals) == 0 || len(members) < len(vals) {
			return true
		}
		c := mustCubeQuick()
		var wantCount int
		var wantSum float64
		for i, v := range vals {
			// Bound magnitudes so the conservation sum cannot overflow.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				continue
			}
			m := []string{string(rune('a' + members[i]%3)), string(rune('x' + members[i]%2))}
			if err := c.AddFact(m, v); err != nil {
				return false
			}
			wantCount++
			wantSum += v
		}
		if wantCount == 0 {
			return true
		}
		rolled, err := c.RollUp("d1")
		if err != nil {
			return false
		}
		var gotCount int
		var gotSum float64
		for _, cell := range rolled {
			gotCount += cell.Count
			gotSum += cell.Sum
		}
		return gotCount == wantCount && math.Abs(gotSum-wantSum) < 1e-6*(1+math.Abs(wantSum))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func mustCubeQuick() *Cube {
	c, err := New("d1", "d2")
	if err != nil {
		panic(err)
	}
	return c
}
