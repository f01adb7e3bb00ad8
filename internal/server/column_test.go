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
// they pin. A column padded with NaN up to t held 557 554 bytes per
// record here (64 Ki floats plus append slack); a column of blocks
// holds one block, beside the job, grid and cube cell every new job
// costs anyway.
func TestHostileFarSamplesBounded(t *testing.T) {
	ps := newPlantState(binaryTestTopo())
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
// flatten to the reference's series, and the format-2 snapshot must
// encode to the bytes the reference series give — also after a
// restore.
func TestColumnMatchesFlatReference(t *testing.T) {
	topo := topoWithDefaults(binaryTestTopo()) // as registration and decodeState fill it in
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

		for k, series := range refGrids {
			ms := ps.mstores[k.machine]
			g := ms.jobsByID[k.job].phases[k.phase]
			for s, want := range series {
				if got := g.cols[s].flat(&ms.slab); !sameSeries(got, want) {
					t.Fatalf("seed %d: machine %d job %d phase %d sensor %d flattens to %d samples, reference %d (or a hole moved)",
						seed, k.machine, k.job, k.phase, s, len(got), len(want))
				}
			}
		}
		for s, want := range refEnv {
			if got := ps.env.cols[s].flat(&ps.env.slab); !sameSeries(got, want) {
				t.Fatalf("seed %d: env sensor %d flattens to %d samples, reference %d", seed, s, len(got), len(want))
			}
		}

		st := ps.captureState()
		got, err := encodeState(st)
		if err != nil {
			t.Fatal(err)
		}
		for mid := range st.Machines {
			for i := range st.Machines[mid].Jobs {
				sj := &st.Machines[mid].Jobs[i]
				for ph := range sj.Phases {
					sj.Phases[ph] = refGrids[gridKey{int32(mid), sj.Job, int32(ph)}]
				}
			}
		}
		st.Env = refEnv
		want, err := encodeState(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: the snapshot of the columns (%d bytes) differs from that of the reference series (%d bytes)", seed, len(got), len(want))
		}

		decoded, err := decodeState(got)
		if err != nil {
			t.Fatal(err)
		}
		restored := newPlantState(decoded.Topo)
		restored.makeShards(1, 8)
		restored.applyState(decoded)
		again, err := encodeState(restored.captureState())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, got) {
			t.Fatalf("seed %d: capture → restore → capture changed the snapshot (%d vs %d bytes)", seed, len(again), len(got))
		}
	}
}

// BenchmarkFold is the fold hop alone: one bench-shaped machine (96
// jobs × 4 phases × 4 sensors × 80 samples) folded into a fresh plant
// in batches of 1 000, in the bench trace's order (job, phase, sensor,
// t: one column at a time) and time-major (job, phase, t, sensor: the
// sensors of a phase advance together). It reports ns/rec beside B/op
// and allocs/op, which are per machine.
func BenchmarkFold(b *testing.B) {
	const jobs, samples, batch = 96, 80, 1000
	topo := Topology{
		ID:         "bench-fold",
		Lines:      []TopoLine{{ID: "l0", Machines: []string{"m0"}}},
		Phases:     []string{"p0", "p1", "p2", "p3"},
		Sensors:    []string{"s0", "s1", "s2", "s3"},
		EnvSensors: []string{"hall"},
	}
	phases, sensors := len(topo.Phases), len(topo.Sensors)
	ref := func(j, ph, s, t int) recordRef {
		return recordRef{job: int32(j), phase: int32(ph), sensor: int32(s), t: int32(t), value: 20 + float64((j*7+ph*5+s*3+t)%11)}
	}
	var trace, timeMajor []recordRef
	for j := 0; j < jobs; j++ {
		for ph := 0; ph < phases; ph++ {
			for s := 0; s < sensors; s++ {
				for t := 0; t < samples; t++ {
					trace = append(trace, ref(j, ph, s, t))
				}
			}
			for t := 0; t < samples; t++ {
				for s := 0; s < sensors; s++ {
					timeMajor = append(timeMajor, ref(j, ph, s, t))
				}
			}
		}
	}
	for _, order := range []struct {
		name string
		refs []recordRef
	}{{"trace", trace}, {"time-major", timeMajor}} {
		b.Run(order.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ps := newPlantState(topo)
				ps.makeShards(1, 1)
				ps.alertThreshold = math.Inf(1)
				for rest := order.refs; len(rest) > 0; {
					n := min(batch, len(rest))
					ps.foldRefs(rest[:n])
					rest = rest[n:]
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(order.refs)), "ns/rec")
		})
	}
}
