package olap

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/intern"
)

// TestAnswersIndependentOfIDAssignment is the differential property the
// one-evaluator design rests on: the same facts folded (i) into one
// Cube, whose dictionary assigns ids in arrival order, and (ii) split
// across k IntCubes under dictionaries that assign ids in reversed or
// shuffled order, answer every op with JSON-byte-identical Results. Ids
// therefore cannot leak into cell order, nor — the measures span thirty
// decades, so fold order shows in the last bits — into float sums. The
// split view also skips the shards a machine pin rules out, so a
// skipping Scan answers as a full one does.
func TestAnswersIndependentOfIDAssignment(t *testing.T) {
	dims := []string{"line", "machine", "phase", "sensor"}
	members := [][]string{
		{"l-0", "l-1", "l-10", "l-2"},
		{"l-0/m-0", "l-0/m-1", "l-1/m-0", "l-10/m-0", "l-2/m-0", "l-2/m-10", "l-2/m-2"},
		{"cool", "melt", "print"},
		{"temp-a", "temp-b", "vib"},
	}
	queries := []Query{
		{},
		{Where: map[string]string{"machine": "l-2/m-10"}},
		{Where: map[string]string{"phase": "print", "sensor": "vib"}},
		{Where: map[string]string{"line": "l-7"}},
		{Op: "rollup", Keep: []string{"line", "sensor"}},
		{Op: "rollup", Keep: []string{"sensor", "machine"}},
		{Op: "rollup", Keep: []string{"phase"}, Where: map[string]string{"line": "l-10"}},
		{Op: "drilldown", Dim: "machine", Where: map[string]string{"sensor": "temp-b"}},
		{Op: "drilldown", Dim: "phase", Where: map[string]string{"machine": "l-0/m-1", "line": "l-0"}},
		{Op: "members", Dim: "line"},
		{Op: "members", Dim: "machine"},
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 12; round++ {
		k := 1 + round%3
		// Dictionaries for (ii): every member known up front, ids in
		// reversed (even rounds) or shuffled (odd rounds) order.
		dict := make([]Dim, len(dims))
		tables := make([]*intern.Table, len(dims))
		for d, ms := range members {
			names := append([]string(nil), ms...)
			if round%2 == 0 {
				for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
					names[i], names[j] = names[j], names[i]
				}
			} else {
				rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
			}
			tables[d] = intern.New(names)
			dict[d] = tables[d]
		}
		one := mustCube(t, dims...)
		shards := make([]*IntCube, k)
		for i := range shards {
			shards[i] = NewIntCube()
		}
		for f := 0; f < 400; f++ {
			coord := make([]string, len(dims))
			var ids IntCoord
			for d := range dims {
				coord[d] = members[d][rng.Intn(len(members[d]))]
				ids[d], _ = tables[d].ID(coord[d])
			}
			v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
			if err := one.AddFact(coord, v); err != nil {
				t.Fatal(err)
			}
			// Like the serving layer: a machine lives on exactly one
			// shard, so no two shards hold the same coordinate.
			if err := shards[int(ids[1])%k].AddFact(ids, v); err != nil {
				t.Fatal(err)
			}
		}
		// The split view skips the shards a machine pin rules out, as the
		// serving layer skips machine stores.
		split := View{Dims: dims, Dict: dict, Scan: func(pins []Pin, visit func(*IntCell)) int {
			total := 0
			for i, sh := range shards {
				skip := false
				for _, p := range pins {
					skip = skip || p.Dim == 1 && int(p.ID)%k != i
				}
				if skip {
					total += sh.Len()
				} else {
					total += sh.Scan(visit)
				}
			}
			return total
		}}
		for _, q := range queries {
			want, err := one.Answer(q)
			if err != nil {
				t.Fatalf("round %d %+v: %v", round, q, err)
			}
			got, err := split.Answer(q)
			if err != nil {
				t.Fatalf("round %d %+v (split): %v", round, q, err)
			}
			wantJSON, _ := json.Marshal(want)
			gotJSON, _ := json.Marshal(got)
			if !bytes.Equal(wantJSON, gotJSON) {
				t.Fatalf("round %d k=%d %+v:\none cube: %s\nsplit:    %s", round, k, q, wantJSON, gotJSON)
			}
		}
	}
}

// TestObserveFastPathZeroAlloc pins the per-record fold cost: once a
// cell exists, folding another sample into it must not allocate. This
// is the gate the ingest hot path (foldRefs' cubeLast memo) relies on.
func TestObserveFastPathZeroAlloc(t *testing.T) {
	ic := &IntCell{}
	if err := ic.Observe(1); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if err := ic.Observe(2.5); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("IntCell.Observe allocates %v per run, want 0", n)
	}

	cube := NewIntCube()
	coord := IntCoord{0, 1, 2, 3, 4}
	if err := cube.AddFact(coord, 1); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if err := cube.AddFact(coord, 2); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("IntCube.AddFact (existing cell) allocates %v per run, want 0", n)
	}
}
