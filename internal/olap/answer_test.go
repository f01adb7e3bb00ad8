package olap

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/intern"
	"repro/pkg/hod/wire"
)

// memberPool holds names whose byte order is not their id order under
// any assignment the test makes: shared prefixes, an empty-looking
// digit run, upper case before lower, multi-byte UTF-8.
var memberPool = []string{
	"a", "a0", "a-1", "ab", "A", "Z", "b/10", "b/2", "b/1", "zz", "é", "ä", "m-0", "m-00", "10", "9",
}

// assign builds a fixed dictionary over names with ids in the order
// the mode picks: as given, reversed, or shuffled.
func assign(rng *rand.Rand, names []string, mode int) *intern.Table {
	names = append([]string(nil), names...)
	switch mode % 3 {
	case 1:
		for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
			names[i], names[j] = names[j], names[i]
		}
	case 2:
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	}
	return intern.New(names)
}

// randomQuery draws a question over dims, legal or not: unknown ops,
// dimensions and members, duplicate and empty keep lists all occur, so
// the two evaluators' refusals are compared too.
func randomQuery(rng *rand.Rand, dims []string, members [][]string) Query {
	var q Query
	q.Op = []string{"", wire.CubeOpSlice, wire.CubeOpRollup, wire.CubeOpMembers, wire.CubeOpDrilldown, "pivot"}[rng.Intn(6)]
	pick := func() string {
		if rng.Intn(12) == 0 {
			return "galaxy"
		}
		return dims[rng.Intn(len(dims))]
	}
	for d := range dims {
		if rng.Intn(3) == 0 {
			if q.Where == nil {
				q.Where = map[string]string{}
			}
			m := members[d][rng.Intn(len(members[d]))]
			if rng.Intn(10) == 0 {
				m = "never-seen"
			}
			q.Where[dims[d]] = m
		}
	}
	if rng.Intn(15) == 0 {
		q.Where = map[string]string{pick(): "x"}
	}
	switch q.Op {
	case wire.CubeOpRollup:
		for _, i := range rng.Perm(len(dims))[:rng.Intn(len(dims)+1)] {
			q.Keep = append(q.Keep, dims[i])
		}
		if rng.Intn(10) == 0 {
			q.Keep = append(q.Keep, pick())
		}
	case wire.CubeOpMembers:
		q.Dim = pick()
		if rng.Intn(4) != 0 {
			q.Where = nil
		}
	case wire.CubeOpDrilldown:
		q.Dim = pick()
		if rng.Intn(4) != 0 {
			delete(q.Where, q.Dim)
		}
	}
	if rng.Intn(20) == 0 {
		q.Dim = pick() // stray operand
	}
	return q
}

// checkAgainstReference asks q of v and of the reference evaluator and
// fails unless both answer the same Result or refuse with the same
// error.
func checkAgainstReference(t *testing.T, label string, v View, q Query) {
	t.Helper()
	want, werr := referenceAnswer(v, q)
	got, gerr := v.Answer(q)
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%s %+v: error %v, reference %v", label, q, gerr, werr)
	}
	for _, sentinel := range []error{ErrSchema, ErrNonFinite} {
		if errors.Is(gerr, sentinel) != errors.Is(werr, sentinel) {
			t.Fatalf("%s %+v: errors.Is(%v, %v) differs from the reference's %v", label, q, gerr, sentinel, werr)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %+v:\n got %+v\nwant %+v", label, q, got, want)
	}
}

// TestAnswerMatchesReference is the differential test of the
// evaluator: random cubes of one to five dimensions, under dictionaries
// that assign ids as given, reversed or shuffled, split across one to
// three IntCubes, asked random questions of every op. Measures span
// thirty decades, so a group folded in another order shows in its last
// bits; one round in four puts them near the float64 limit, so group
// sums overflow and both evaluators must refuse with ErrNonFinite.
func TestAnswerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(5)
		dims := make([]string, n)
		members := make([][]string, n)
		dict := make([]Dim, n)
		tables := make([]*intern.Table, n)
		for d := range dims {
			dims[d] = fmt.Sprintf("d%d", d)
			for _, i := range rng.Perm(len(memberPool))[:1+rng.Intn(6)] {
				members[d] = append(members[d], memberPool[i])
			}
			tables[d] = assign(rng, members[d], round+d)
			dict[d] = tables[d]
		}
		huge := round%4 == 3
		shards := make([]*IntCube, 1+rng.Intn(3))
		for i := range shards {
			shards[i] = NewIntCube()
		}
		for f := rng.Intn(200); f > 0; f-- {
			var ids IntCoord
			for d := range dims {
				ids[d], _ = tables[d].ID(members[d][rng.Intn(len(members[d]))])
			}
			v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
			if huge {
				v = (0.5 + rng.Float64()) * 1e308 * float64(1-2*rng.Intn(2))
			}
			// A coordinate lives on one shard, as a machine does.
			_ = shards[int(ids[0])%len(shards)].AddFact(ids, v) // an overflowing fact is refused; fine
		}
		v := View{Dims: dims, Dict: dict, Ranks: new(Ranks), Scan: func(_ []Pin, visit func(*IntCell)) int {
			total := 0
			for _, sh := range shards {
				total += sh.Scan(visit)
			}
			return total
		}}
		for i := 0; i < 40; i++ {
			checkAgainstReference(t, fmt.Sprintf("round %d", round), v, randomQuery(rng, dims, members))
		}
		// Every op once more on the warm cache, and without a cache.
		q := randomQuery(rng, dims, members)
		checkAgainstReference(t, fmt.Sprintf("round %d warm", round), v, q)
		v.Ranks = nil
		checkAgainstReference(t, fmt.Sprintf("round %d uncached", round), v, q)
	}
}

// TestAnswerOverflowRefused pins the overflow case directly: two cells
// of 1e308 each are accepted data, and rolling them up onto their
// shared sensor overflows the group sum.
func TestAnswerOverflowRefused(t *testing.T) {
	c := mustCube(t, "machine", "sensor")
	for _, m := range []string{"m1", "m2"} {
		if err := c.AddFact([]string{m, "temp"}, 1e308); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []Query{
		{Op: wire.CubeOpRollup, Keep: []string{"sensor"}},
		{Op: wire.CubeOpDrilldown, Dim: "sensor"},
	} {
		_, err := c.Answer(q)
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("%+v: err = %v, want ErrNonFinite", q, err)
		}
		checkAgainstReference(t, "overflow", c.view(), q)
	}
	if _, err := c.Answer(Query{Op: wire.CubeOpRollup, Keep: []string{"machine"}}); err != nil {
		t.Fatalf("per-machine groups hold one cell each and cannot overflow: %v", err)
	}
}

// TestAnswerRanksFollowDictionary: the rank cache is keyed by the
// dictionary's identity and length. A dictionary that grows between
// two queries — with names that sort before, between and after the
// ones it had — and one that is replaced by another assignment of the
// same length must both be re-ranked.
func TestAnswerRanksFollowDictionary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dims := []string{"line", "job", "sensor"}
	c := mustCube(t, dims...)
	members := [][]string{{"l-1"}, {}, {"s"}}
	queries := []Query{
		{},
		{Op: wire.CubeOpRollup, Keep: []string{"job"}},
		{Op: wire.CubeOpRollup, Keep: []string{"sensor", "job"}},
		{Op: wire.CubeOpMembers, Dim: "job"},
		{Op: wire.CubeOpDrilldown, Dim: "job", Where: map[string]string{"line": "l-1"}},
	}
	for step, batch := range [][]string{{"j-5"}, {"j-3", "j-7"}, {"j-1", "j-4", "j-9"}, {"a"}, {"j-50", "z"}} {
		for _, job := range batch {
			members[1] = append(members[1], job)
			for i := 0; i < 3; i++ {
				if err := c.AddFact([]string{"l-1", job, "s"}, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(20)-10))); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, q := range queries {
			checkAgainstReference(t, fmt.Sprintf("step %d", step), c.view(), q)
		}
		// The answer's job order is the names' byte order, however the
		// ids ran.
		got, err := c.Members("job")
		if err != nil || !sort.StringsAreSorted(got) || len(got) != len(members[1]) {
			t.Fatalf("step %d: members %v (%v)", step, got, err)
		}
	}

	// Same owner, a dictionary of the same length with another id
	// assignment: the cache must not serve the old one's ranks.
	names := []string{"c", "a", "b"}
	cube := NewIntCube()
	for id := range names {
		if err := cube.AddFact(IntCoord{int32(id)}, float64(id)); err != nil {
			t.Fatal(err)
		}
	}
	ranks := new(Ranks)
	for _, order := range [][]string{names, {"b", "c", "a"}, {"a", "b", "c"}} {
		v := View{Dims: []string{"x"}, Dict: []Dim{intern.New(order)}, Ranks: ranks,
			Scan: func(_ []Pin, visit func(*IntCell)) int { return cube.Scan(visit) }}
		checkAgainstReference(t, strings.Join(order, ""), v, Query{})
		checkAgainstReference(t, strings.Join(order, ""), v, Query{Op: wire.CubeOpMembers, Dim: "x"})
	}
}

// TestAnswerConcurrentWithInterning runs queries while another
// goroutine interns new names and folds cells under the owner's lock,
// the serving layer's pattern (meant for -race). Every answer must be
// in name order.
func TestAnswerConcurrentWithInterning(t *testing.T) {
	jobs := intern.NewDyn(nil)
	sensors := intern.New([]string{"s-b", "s-a"})
	var mu sync.Mutex
	cube := NewIntCube()
	v := View{
		Dims:  []string{"job", "sensor"},
		Dict:  []Dim{jobs, sensors},
		Ranks: new(Ranks),
		Scan: func(_ []Pin, visit func(*IntCell)) int {
			mu.Lock()
			defer mu.Unlock()
			return cube.Scan(visit)
		},
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			id := jobs.Intern(fmt.Sprintf("j-%d", (i*7919)%1000))
			mu.Lock()
			_ = cube.AddFact(IntCoord{id, int32(i % 2)}, float64(i))
			mu.Unlock()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := v.Answer(Query{})
				if err != nil {
					t.Error(err)
					return
				}
				for i := 1; i < len(res.Cells); i++ {
					a, b := res.Cells[i-1].Coord, res.Cells[i].Coord
					if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
						t.Errorf("cells out of order: %v before %v", a, b)
						return
					}
				}
				if _, err := v.Answer(Query{Op: wire.CubeOpRollup, Keep: []string{"job"}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// benchView builds the serving cube's bench shape, laid out the way
// the serving layer holds it: 2 lines × 3 machines × 96 jobs × 5
// phases × 4 sensors = 11 520 cells, one IntCube per machine, fixed
// dictionaries for the registered names and a growable one for jobs.
// Its Scan skips the machines a line or machine pin rules out.
func benchView(b *testing.B) (View, []string, []string) {
	rng := rand.New(rand.NewSource(1))
	lines := []string{"line-0", "line-1"}
	var machines []string
	for _, l := range lines {
		for m := 0; m < 3; m++ {
			machines = append(machines, fmt.Sprintf("%s/m-%d", l, m))
		}
	}
	phases := []string{"print", "recoat", "heat", "cool", "inspect"}
	sensors := []string{"temp-a", "temp-b", "power", "vibration"}
	jobs := intern.NewDyn(nil)
	cubes := make([]*IntCube, len(machines))
	for m := range machines {
		cubes[m] = NewIntCube()
		for j := 0; j < 96; j++ {
			job := jobs.Intern(fmt.Sprintf("%s/job-%03d", machines[m], j))
			for ph := range phases {
				for s := range sensors {
					for k := 0; k < 20; k++ {
						if err := cubes[m].AddFact(IntCoord{int32(m / 3), int32(m), job, int32(ph), int32(s)}, 20+3*rng.NormFloat64()); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		}
	}
	v := View{
		Dims:  wire.CubeDims(),
		Dict:  []Dim{intern.New(lines), intern.New(machines), jobs, intern.New(phases), intern.New(sensors)},
		Ranks: new(Ranks),
		Scan: func(pins []Pin, visit func(*IntCell)) int {
			total := 0
			for m, c := range cubes {
				skip := false
				for _, p := range pins {
					skip = skip || p.Dim == 0 && p.ID != int32(m/3) || p.Dim == 1 && p.ID != int32(m)
				}
				if skip {
					total += c.Len()
				} else {
					total += c.Scan(visit)
				}
			}
			return total
		},
	}
	return v, lines, machines
}

// BenchmarkCubeAnswer times the four ops on the bench shape, cycling
// through distinct machines and lines, beside the reference evaluator
// (the one before ranks were cached and cells counting-sorted).
//
//	go test -run '^$' -bench CubeAnswer -benchmem ./internal/olap
func BenchmarkCubeAnswer(b *testing.B) {
	v, lines, machines := benchView(b)
	for _, op := range []struct {
		name  string
		query func(i int) Query
	}{
		{"slice", func(i int) Query { return Query{Where: map[string]string{"machine": machines[i%len(machines)]}} }},
		{"rollup_line_sensor", func(int) Query { return Query{Op: wire.CubeOpRollup, Keep: []string{"line", "sensor"}} }},
		{"drilldown_machine_line", func(i int) Query {
			return Query{Op: wire.CubeOpDrilldown, Dim: "machine", Where: map[string]string{"line": lines[i%len(lines)]}}
		}},
		{"drilldown_phase_machine", func(i int) Query {
			return Query{Op: wire.CubeOpDrilldown, Dim: "phase", Where: map[string]string{"machine": machines[i%len(machines)]}}
		}},
		{"members_job", func(int) Query { return Query{Op: wire.CubeOpMembers, Dim: "job"} }},
	} {
		for _, eval := range []struct {
			name string
			fn   func(View, Query) (Result, error)
		}{{"answer", View.Answer}, {"reference", referenceAnswer}} {
			b.Run(op.name+"/"+eval.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := eval.fn(v, op.query(i)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
