package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// liveHeap is the heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestHostileFarSamplesBounded folds 2 000 valid records, each under a
// job of its own at the top of the t range, and bounds the live heap
// they pin, then the snapshot of them: the bytes it encodes to and the
// bytes encoding and decoding it allocate, per accepted record. A
// column padded with NaN up to t held 557 554 bytes per record here
// (64 Ki floats plus append slack), and a format-2 snapshot wrote the
// pad out — about 590 KB per record, allocating several MB; a column of
// blocks holds one block, beside the job, grid and cube cell every new
// job costs anyway, and the snapshot writes that block.
func TestHostileFarSamplesBounded(t *testing.T) {
	ps := newPlantState(topoWithDefaults(binaryTestTopo()))
	ps.makeShards(1, 8)
	ps.alertThreshold = math.Inf(1)
	recs := make([]Record, 2000)
	for i := range recs {
		recs[i] = Record{Machine: "m0", Job: fmt.Sprintf("hostile-%04d", i), Phase: "heat", Sensor: "temp", T: maxSampleIndex - 1, Value: 1}
	}
	before := liveHeap()
	foldPlant(t, ps, recs)
	grown := liveHeap() - before
	if got := ps.accepted.Load(); got != uint64(len(recs)) {
		t.Fatalf("accepted %d of %d records", got, len(recs))
	}
	runtime.KeepAlive(ps)
	const perRecord = 4 << 10
	per := grown / int64(len(recs))
	t.Logf("live heap grew %d bytes per record", per)
	if per > perRecord {
		t.Fatalf("live heap grew %d bytes per record at t = %d, want at most %d", per, maxSampleIndex-1, perRecord)
	}

	// The snapshot: about 300 bytes per record (the job's name, its
	// entry, one grid of two columns and one block), and what encoding
	// and decoding allocate beside them.
	const snapPerRecord, allocPerRecord = 1 << 10, 4 << 10
	var payload []byte
	encAlloc := allocated(func() { payload, _ = ps.encodeState(true) })
	var err error
	decAlloc := allocated(func() { _, _, err = decodeState(payload) })
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(recs))
	t.Logf("snapshot: %d bytes per record, encoding allocated %d and decoding %d per record",
		uint64(len(payload))/n, encAlloc/n, decAlloc/n)
	if uint64(len(payload))/n > snapPerRecord {
		t.Fatalf("snapshot of %d bytes per record at t = %d, want at most %d", uint64(len(payload))/n, maxSampleIndex-1, snapPerRecord)
	}
	if encAlloc/n > allocPerRecord || decAlloc/n > allocPerRecord {
		t.Fatalf("snapshot encoding allocated %d and decoding %d bytes per record, want at most %d each", encAlloc/n, decAlloc/n, allocPerRecord)
	}
}

// TestDirHintBounded: a column that fills the whole t range raises its
// kind's directory hint to maxDirHint, not to its 4 096 entries, and a
// lone sample at a far t raises it by one entry.
func TestDirHintBounded(t *testing.T) {
	var s slab
	var h dirHint
	var far column
	far.set(&s, &h, maxSampleIndex-1, 1)
	if h != 1 {
		t.Fatalf("one far sample left the hint at %d entries, want 1", h)
	}
	var long column
	for at := 0; at < maxSampleIndex; at += blockLen {
		long.set(&s, &h, at, 1)
	}
	var next column
	next.set(&s, &h, 0, 1)
	if h != maxDirHint || cap(next.dir) != maxDirHint {
		t.Fatalf("after a %d-entry column the hint is %d and a new directory holds %d, want %d", len(long.dir), h, cap(next.dir), maxDirHint)
	}
}

// flatSet is the column's reference: the padded slice the store kept
// before columns were blocks, grown with append and set at index.
func flatSet(buf []float64, t int, v float64) (out []float64, fresh, changed bool) {
	for len(buf) <= t {
		buf = append(buf, math.NaN())
	}
	fresh = math.IsNaN(buf[t])
	changed = fresh || buf[t] != v
	buf[t] = v
	return buf, fresh, changed
}

// sameSeries compares two series bit for bit: length, values and the
// positions of the NaN holes.
func sameSeries(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestColumnMatchesFlatReference drives the machine and environment
// stores and a flat-slice reference with the same random traffic: t in
// order, reversed, scattered and at the far end of the range,
// duplicates, corrections and stored NaN values (math.NaN, the one NaN
// the store itself writes; admission refuses NaN samples). Every write
// must report the reference's fresh/changed flags, every column must
// read as the reference's series, and so must every column of the
// plant its snapshot decodes to, which must capture back to the same
// bytes.
func TestColumnMatchesFlatReference(t *testing.T) {
	topo := topoWithDefaults(binaryTestTopo()) // as registration fills it in, and decodeState wants it
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ps := newPlantState(topo)
		ps.makeShards(1, 8)
		const nJobs = 6
		for j := 0; j < nJobs; j++ {
			ps.in.jobs.Intern(fmt.Sprintf("job-%d", j))
		}
		type gridKey struct{ machine, job, phase int32 }
		refGrids := map[gridKey][][]float64{}
		refEnv := make([][]float64, len(topo.EnvSensors))

		write := func(machine, job, phase, sensor int32, at int, v float64) {
			var fresh, changed, wantFresh, wantChanged bool
			if machine < 0 {
				fresh, changed = ps.env.set(sensor, at, v)
				refEnv[sensor], wantFresh, wantChanged = flatSet(refEnv[sensor], at, v)
			} else {
				ms := ps.mstores[machine]
				ms.mu.Lock()
				_, fresh, changed = ms.set(recordRef{machine: machine, job: job, phase: phase, sensor: sensor, t: int32(at), value: v})
				ms.mu.Unlock()
				k := gridKey{machine, job, phase}
				if refGrids[k] == nil {
					refGrids[k] = make([][]float64, len(topo.Sensors))
				}
				refGrids[k][sensor], wantFresh, wantChanged = flatSet(refGrids[k][sensor], at, v)
			}
			if fresh != wantFresh || changed != wantChanged {
				t.Fatalf("seed %d: set(machine %d job %d phase %d sensor %d, t %d, %v) = fresh %v changed %v, reference %v %v",
					seed, machine, job, phase, sensor, at, v, fresh, changed, wantFresh, wantChanged)
			}
		}
		value := func() float64 {
			switch rng.Intn(12) {
			case 0:
				return math.NaN()
			case 1:
				return 0
			default:
				return float64(rng.Intn(5)) // small range: corrections and equal rewrites both happen
			}
		}
		for op := 0; op < 400; op++ {
			machine := int32(rng.Intn(len(ps.mstores)+1)) - 1 // -1: the environment
			job, phase := int32(rng.Intn(nJobs)), int32(rng.Intn(len(topo.Phases)))
			sensor := int32(rng.Intn(len(topo.Sensors)))
			if machine < 0 {
				sensor = int32(rng.Intn(len(topo.EnvSensors)))
			}
			from, n := rng.Intn(3*blockLen), 1+rng.Intn(3*blockLen)
			switch rng.Intn(5) {
			case 0: // in order
				for at := from; at < from+n; at++ {
					write(machine, job, phase, sensor, at, value())
				}
			case 1: // reversed
				for at := from + n - 1; at >= from; at-- {
					write(machine, job, phase, sensor, at, value())
				}
			case 2: // scattered
				for i := 0; i < n; i++ {
					write(machine, job, phase, sensor, rng.Intn(8*blockLen), value())
				}
			case 3: // far
				write(machine, job, phase, sensor, maxSampleIndex-1-rng.Intn(3*blockLen), value())
			case 4: // a run written twice: duplicates of the same values
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = value()
				}
				for range 2 {
					for i, v := range vals {
						write(machine, job, phase, sensor, from+i, v)
					}
				}
			}
		}

		// The columns, and the columns the snapshot decodes to, must
		// read as the reference series; and the decoded plant must
		// capture back to the same bytes.
		payload, _ := ps.encodeState(false)
		restored, _, err := decodeState(payload)
		if err != nil {
			t.Fatal(err)
		}
		for name, p := range map[string]*plantState{"store": ps, "restored": restored} {
			for k, series := range refGrids {
				ms := p.mstores[k.machine]
				g := ms.jobsByID[k.job].phases[k.phase]
				for s, want := range series {
					if got := flatten(&g.cols[s], &ms.slab); !sameSeries(got, want) {
						t.Fatalf("seed %d: %s: machine %d job %d phase %d sensor %d reads %d samples, reference %d (or a hole moved)",
							seed, name, k.machine, k.job, k.phase, s, len(got), len(want))
					}
				}
			}
			for s, want := range refEnv {
				if got := flatten(&p.env.cols[s], &p.env.slab); !sameSeries(got, want) {
					t.Fatalf("seed %d: %s: env sensor %d reads %d samples, reference %d", seed, name, s, len(got), len(want))
				}
			}
		}
		restored.makeShards(1, 8)
		if again, _ := restored.encodeState(false); !bytes.Equal(again, payload) {
			t.Fatalf("seed %d: capture → restore → capture changed the snapshot (%d vs %d bytes)", seed, len(again), len(payload))
		}
	}
}

// flatten reads a column as the padded slice it stands for: n samples,
// nil when nothing was written.
func flatten(c *column, s *slab) []float64 {
	if c.n == 0 {
		return nil
	}
	out := make([]float64, c.n)
	c.fill(s, out)
	return out
}

// foldShape is one bench-shaped machine: 96 jobs × 4 phases × 4
// sensors × 80 samples, as refs in the bench trace's order (job, phase,
// sensor, t: one column at a time) and time-major (job, phase, t,
// sensor: the sensors of a phase advance together).
const foldJobs, foldPhases, foldSensors, foldSamples = 96, 4, 4, 80

func foldShape() (topo Topology, trace, timeMajor []recordRef) {
	topo = Topology{
		ID:         "bench-fold",
		Lines:      []TopoLine{{ID: "l0", Machines: []string{"m0"}}},
		Phases:     []string{"p0", "p1", "p2", "p3"},
		Sensors:    []string{"s0", "s1", "s2", "s3"},
		EnvSensors: []string{"hall"},
	}
	ref := func(j, ph, s, t int) recordRef {
		return recordRef{job: int32(j), phase: int32(ph), sensor: int32(s), t: int32(t), value: 20 + float64((j*7+ph*5+s*3+t)%11)}
	}
	for j := 0; j < foldJobs; j++ {
		for ph := 0; ph < foldPhases; ph++ {
			for s := 0; s < foldSensors; s++ {
				for t := 0; t < foldSamples; t++ {
					trace = append(trace, ref(j, ph, s, t))
				}
			}
			for t := 0; t < foldSamples; t++ {
				for s := 0; s < foldSensors; s++ {
					timeMajor = append(timeMajor, ref(j, ph, s, t))
				}
			}
		}
	}
	return topo, trace, timeMajor
}

// foldMachine folds refs into a fresh plant of topo in batches of 1 000.
func foldMachine(topo Topology, refs []recordRef) {
	ps := newPlantState(topo)
	ps.makeShards(1, 1)
	ps.alertThreshold = math.Inf(1)
	for rest := refs; len(rest) > 0; {
		n := min(1000, len(rest))
		ps.foldRefs(rest[:n])
		rest = rest[n:]
	}
}

// TestFoldAllocsBounded bounds the objects one bench-shaped machine's
// fold allocates. Its 1 536 columns, 384 grids and 96 jobs cost one
// directory per column (sized once, to its phase's hint), three objects
// per grid and two per job: 2 880. One slab chunk per 128 blocks and
// the plant's own setup add about 120. A directory grown one entry at a
// time cost four objects per column instead, 7 602 in all.
func TestFoldAllocsBounded(t *testing.T) {
	const bound = 3200
	topo, trace, timeMajor := foldShape()
	for name, refs := range map[string][]recordRef{"trace": trace, "time-major": timeMajor} {
		if n := testing.AllocsPerRun(3, func() { foldMachine(topo, refs) }); n > bound {
			t.Errorf("%s: folding one bench-shaped machine allocated %v objects, want at most %d", name, n, bound)
		}
	}
}

// BenchmarkFold is the fold hop alone: one bench-shaped machine
// (foldShape) folded into a fresh plant in batches of 1 000, in trace
// and time-major order. It reports ns/rec beside B/op and allocs/op,
// which are per machine.
func BenchmarkFold(b *testing.B) {
	topo, trace, timeMajor := foldShape()
	for _, order := range []struct {
		name string
		refs []recordRef
	}{{"trace", trace}, {"time-major", timeMajor}} {
		b.Run(order.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				foldMachine(topo, order.refs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(order.refs)), "ns/rec")
		})
	}
}
