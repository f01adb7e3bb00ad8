package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

// bulkSpec is what distinguishes the three workloads that ingest whole
// plants in trace order through a closed loop of two connections.
type bulkSpec struct {
	ndjson  bool // NDJSON bodies instead of binary frames
	durable bool // data dir with fsync=always, then kill/recover and restart
	queries bool // closed-loop query mix on the quiescent plants afterwards
}

func runBulkBinaryDurable(r *run) error { return r.bulk(bulkSpec{durable: true}) }
func runBulkNDJSONMem(r *run) error     { return r.bulk(bulkSpec{ndjson: true}) }
func runQueryStatic(r *run) error       { return r.bulk(bulkSpec{queries: true}) }

// bulkRig is a set-up bulk workload: inputs encoded, server open,
// plants registered, and one untimed plant already ingested so that
// pools, interned names and the listener's connections are warm.
type bulkRig struct {
	trace  *trace
	bodies [][]byte
	exp    *expected
	sut    *sut
	plants []string // the timed plants; warmPlant is not among them
}

const warmPlant = "warm"

func (r *run) bulkSetUp(spec bulkSpec) (*bulkRig, error) {
	sz := r.size
	tr, err := simulateTrace(r.seed, sz.lines, sz.bulkMachines, sz.bulkJobs, sz.phaseSamples)
	if err != nil {
		return nil, err
	}
	rig := &bulkRig{trace: tr}
	if rig.bodies, err = encodeBodies(tr.recs, sz.bulkBatch, spec.ndjson); err != nil {
		return nil, err
	}
	if rig.exp, err = offlineExpected(tr.topology("offline"), tr.recs, tr.machines[0]); err != nil {
		return nil, err
	}
	tr.release()
	dataDir := ""
	if spec.durable {
		if dataDir, err = os.MkdirTemp(r.dir, "data-"); err != nil {
			return nil, err
		}
	}
	if rig.sut, err = startSUT(serverOptions(dataDir), r.tr); err != nil {
		return nil, err
	}
	c := rig.sut.newClient()
	plants := sz.bulkPlants
	if spec.ndjson {
		// The text path costs about four times the CPU per record; half
		// the plants keep the run inside the same time budget.
		plants = max(2, plants/2)
	}
	for i := 0; i < plants; i++ {
		rig.plants = append(rig.plants, fmt.Sprintf("p%02d", i))
	}
	for _, id := range append([]string{warmPlant}, rig.plants...) {
		if _, err := c.Register(r.ctx, tr.topology(id)); err != nil {
			rig.sut.stop(true)
			return nil, err
		}
	}
	for _, body := range rig.bodies {
		if _, err := c.IngestBody(r.ctx, warmPlant, contentType(spec.ndjson), body); err != nil {
			rig.sut.stop(true)
			return nil, err
		}
	}
	if err := c.WaitDrained(r.ctx, warmPlant, rig.exp.records); err != nil {
		rig.sut.stop(true)
		return nil, err
	}
	return rig, nil
}

func (r *run) bulk(spec bulkSpec) error {
	rig, err := r.bulkServe(spec)
	if err != nil || r.tr == nil {
		return err
	}
	// The replays run once the server is gone: its plants would otherwise
	// sit in the heap and every GC cycle a replay provokes would mark them.
	r.replayLayers(rig.trace, rig.exp, rig.bodies, r.size.bulkBatch, spec.ndjson, spec.durable)
	if spec.durable {
		r.replayCluster(rig.trace, rig.bodies)
	}
	return nil
}

// bulkServe is everything a bulk workload does with its server: set-up,
// timed ingest, oracle, query mix and, when durable, crash recovery and
// restart. The server is stopped when it returns.
func (r *run) bulkServe(spec bulkSpec) (*bulkRig, error) {
	rig, setup, err := medianSetUp(r.size.setups,
		func() (*bulkRig, error) { return r.bulkSetUp(spec) },
		func(rig *bulkRig) {
			rig.sut.stop(true)
			_ = os.RemoveAll(rig.sut.opts.DataDir)
		})
	if err != nil {
		return nil, err
	}
	s := rig.sut
	rig.sut = nil
	defer func() { s.stop(true) }()
	res := r.res
	r.ingestBatch = r.size.bulkBatch
	res.set("setup_s", setup.Seconds())
	res.set("plant.simulate_ns_per_rec", float64(rig.trace.simulate.Nanoseconds())/float64(rig.trace.total))

	// Timed ingest: every plant receives the trace exactly once. A
	// re-sent record would take the idempotent-replay branch of the
	// fold, which skips roll-up, cube and tracker — another program.
	ing := r.closedLoopIngest(s, rig.plants, rig.bodies, contentType(spec.ndjson), rig.exp.records)
	ing.emit(res)

	v := &verifier{r: r, c: s.newClient(), machines: rig.trace.machines}
	all := append([]string{warmPlant}, rig.plants...)
	seen := make(map[string]*observed)
	verifyAll := func() {
		for _, id := range all {
			v.coldReports(r.ctx, id)
			seen[id] = v.verify(r.ctx, id, rig.exp, seen[id])
		}
	}
	verifyAll()
	res.set("server.cube_cells", float64(rig.exp.cubeSize))

	r.queryMix(s, rig.plants, rig.trace.machines, rig.trace.topology("x").Lines[0].ID, v.c, spec.queries)

	if spec.durable {
		total := float64(len(all)) * float64(rig.exp.records)
		disk, walBytes := dirBytes(s.opts.DataDir)
		res.set("disk_bytes_per_rec", float64(disk)/total)
		res.set("wal.bytes_per_rec", float64(walBytes)/total)
		segments := 0
		for _, id := range all {
			if st, err := v.c.Stats(r.ctx, id); res.ok(err) {
				segments += st.WALSegments
			}
		}
		res.set("server.wal_segments", float64(segments))

		// Crash: the WALs are all there is. Recovery ends when Open has
		// returned and every plant's counters are back.
		reopen := func(kill bool) (closed, opened time.Duration, err error) {
			start := time.Now()
			s.stop(kill)
			closed = time.Since(start)
			next, err := startSUT(s.opts, r.tr)
			if err != nil {
				return 0, 0, err
			}
			s = next
			v.c = s.newClient()
			for _, id := range all {
				if st, err := v.c.Stats(r.ctx, id); res.ok(err) {
					res.ok(mismatch(st.AcceptedRecords == rig.exp.records, "%s: %d records after reopen, sent %d", id, st.AcceptedRecords, rig.exp.records))
				}
			}
			return closed, time.Since(start) - closed, nil
		}
		closed, opened, err := reopen(true)
		if err != nil {
			return nil, fmt.Errorf("recovering from the WAL: %w", err)
		}
		res.set("recover_s", (closed + opened).Seconds())
		res.set("server.open_replay_ns_per_rec", float64(opened.Nanoseconds())/total)
		verifyAll()

		// Graceful restart: Close writes a snapshot of every plant and
		// compacts the WALs; Open loads the snapshots.
		if closed, opened, err = reopen(false); err != nil {
			return nil, fmt.Errorf("restarting from the snapshot: %w", err)
		}
		res.set("restart_s", (closed + opened).Seconds())
		res.set("server.close_snapshot_s", closed.Seconds())
		res.set("server.open_snapshot_s", opened.Seconds())
		verifyAll()

		if r.tr != nil {
			r.backupRestore(v.c, rig)
		}
	}

	res.setHist("server.cube_cold_p50_ms", &v.coldCube, 0.5)
	res.setHist("report_cold_p50_ms", &v.coldReport, 0.5)
	return rig, nil
}

// ingestStats is what one timed ingest phase measured from outside.
type ingestStats struct {
	records  float64
	wall     time.Duration
	cpu      float64 // process CPU seconds over the phase
	retained float64 // heap bytes still live after the phase
	ack      *hist
	drainLag time.Duration
	retried  uint64
	shed     uint64
	rejected uint64
}

func (st ingestStats) emit(res *result) {
	res.set("ingest_rec_per_s", st.records/st.wall.Seconds())
	res.set("cpu_s_per_mrec", st.cpu/(st.records/1e6))
	res.set("live_bytes_per_rec", st.retained/st.records)
	res.setHist("ack_p50_ms", st.ack, 0.5)
	res.set("server.drain_lag_ms", float64(st.drainLag)/1e6)
	res.set("hod.retried_batches", float64(st.retried))
	res.set("server.shed_batches", float64(st.shed))
	res.set("server.rejected_records", float64(st.rejected))
}

// heapLive is the heap still reachable after a full collection. Two
// cycles: what a sync.Pool held survives the first in its victim cache.
func heapLive() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// closedLoopIngest sends every body to every plant once, in order, over
// two connections (sender w takes plants w, w+2, ...), and stops the
// clock when every plant has folded everything it was sent.
func (r *run) closedLoopIngest(s *sut, plants []string, bodies [][]byte, ctype string, perPlant uint64) ingestStats {
	const senders = 2 // = nproc on the reference box; more would only queue on the CPUs
	st := ingestStats{records: float64(len(plants)) * float64(perPlant), ack: &hist{}}
	clients := make([]*hod.Client, senders)
	acks := make([]hist, senders)
	for w := range clients {
		clients[w] = s.newClient()
	}
	stopPoll := r.pollQueues(s, plants)

	heap0, cpu0, start := heapLive(), cpuSeconds(), time.Now()
	closedLoop(senders, func(w int) {
		for p := w; p < len(plants); p += senders {
			for _, body := range bodies {
				sent := time.Now()
				_, err := tracedCall(r.tr, r.ctx, "hod.ingest", func(ctx context.Context) (wire.IngestAck, error) {
					return clients[w].IngestBody(ctx, plants[p], ctype, body)
				})
				acks[w].record(time.Since(sent))
				r.res.ok(err)
			}
		}
	})
	lastAck := time.Now()
	for _, id := range plants {
		r.res.ok(clients[0].WaitDrained(r.ctx, id, perPlant))
	}
	st.wall = time.Since(start)
	st.drainLag = time.Since(lastAck)
	st.cpu = cpuSeconds() - cpu0
	stopPoll()
	st.retained = heapLive() - heap0

	for w := range clients {
		st.ack.merge(&acks[w])
		st.retried += clients[w].Retried()
	}
	for _, id := range plants {
		if stats, err := clients[0].Stats(r.ctx, id); r.res.ok(err) {
			st.shed += stats.ShedBatches
			st.rejected += stats.RejectedRecords
		}
	}
	return st
}

// pollQueues samples every plant's shard queue depths at 10 Hz on the
// traced pass and emits the maximum when stopped; the untraced pass is
// left alone.
func (r *run) pollQueues(s *sut, plants []string) (stop func()) {
	if r.tr == nil {
		return func() {}
	}
	maxDepth := 0
	c := s.newClient()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			for _, id := range plants {
				st, err := c.Stats(r.ctx, id)
				if err != nil {
					continue // a poll is an observer, not an operation
				}
				for _, d := range st.QueueDepths {
					maxDepth = max(maxDepth, d)
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		r.res.set("server.queue_depth_max", float64(maxDepth))
	}
}

// dirBytes sums the regular files under dir, and the WAL segments
// among them.
func dirBytes(dir string) (total, wal int64) {
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
			if strings.HasSuffix(path, ".wal") {
				wal += info.Size()
			}
		}
		return nil
	})
	return total, wal
}

// backupRestore prices the snapshot codec over HTTP: one bulk plant
// downloaded and restored under a fresh id.
func (r *run) backupRestore(c *hod.Client, rig *bulkRig) {
	start := time.Now()
	backup, err := c.Backup(r.ctx, rig.plants[0])
	took := time.Since(start)
	if !r.res.ok(err) {
		return
	}
	r.tr.add("replay.server.backup", 0, -1, start, start.Add(took))
	r.replaySnapshot(backup)
	r.res.set("server.backup_ms", float64(took)/1e6)
	r.res.set("server.backup_bytes_per_rec", float64(len(backup))/float64(rig.exp.records))
	// The topology rides inside the backup and names its plant, so the
	// restore goes to a second, empty server under the same id.
	target, err := startSUT(serverOptions(""), nil)
	if !r.res.ok(err) {
		return
	}
	defer target.stop(true)
	start = time.Now()
	ack, err := target.newClient().Restore(r.ctx, rig.plants[0], backup)
	took = time.Since(start)
	if r.res.ok(err) {
		r.res.ok(mismatch(ack.Records == rig.exp.records, "restore carried %d records, backup held %d", ack.Records, rig.exp.records))
	}
	r.tr.add("replay.server.restore", 0, -1, start, start.Add(took))
	r.res.set("server.restore_ms", float64(took)/1e6)
}

// queryKinds is the fixed cyclic mix of the quiescent query phase.
const queryKinds = 13

// queryMix is the quiescent query phase: two analysts in a closed loop
// cycle through the mix, round-robin over the plants, on data that no
// longer changes — every merged cube and every report is cached, so
// evaluation and encoding are all that is left. Every repeat of a
// question must hash equal to its first answer. query-static runs it
// at full length and reports all of it (phase B of the issue); the
// other three workloads run it briefly, for cube_p50_ms alone.
func (r *run) queryMix(s *sut, plants, machines []string, line string, stats *hod.Client, full bool) {
	const analysts = 2
	length := r.size.phaseB
	if !full {
		length = r.size.phaseBShort
	}
	revisions := func() (sum uint64) {
		for _, id := range plants {
			if st, err := stats.Stats(r.ctx, id); r.res.ok(err) {
				sum += st.DataRevision
			}
		}
		return sum
	}
	before := revisions()

	var mu sync.Mutex
	first := make(map[[2]int]uint64) // (plant, kind) → hash of the first answer
	cubeLat, reportLat := make([][]hist, analysts), make([]hist, analysts)
	for a := range cubeLat {
		cubeLat[a] = make([]hist, queryKinds)
	}
	asked := make([]int, analysts)
	deadline := time.Now().Add(length)
	closedLoop(analysts, func(a int) {
		c := s.newClient()
		for i := a; time.Now().Before(deadline); i += analysts {
			kind, p := i%queryKinds, (i/queryKinds)%len(plants)
			sent := time.Now()
			done, sum, err := r.ask(c, plants[p], "hod.cube", kind, machines, line)
			took := done.Sub(sent)
			if !r.res.ok(err) {
				continue
			}
			switch {
			case kind <= 10:
				cubeLat[a][kind].record(took)
			case kind == 12:
				reportLat[a].record(took)
			}
			asked[a]++
			mu.Lock()
			want, seen := first[[2]int{p, kind}]
			if !seen {
				first[[2]int{p, kind}] = sum
			}
			mu.Unlock()
			if seen {
				r.res.ok(mismatch(sum == want, "%s: query kind %d changed its answer on quiescent data", plants[p], kind))
			}
		}
	})
	for a := 1; a < analysts; a++ {
		for k := range cubeLat[0] {
			cubeLat[0][k].merge(&cubeLat[a][k])
		}
		reportLat[0].merge(&reportLat[a])
	}
	setCubeP50(r.res, "cube_p50_ms", cubeLat[0])
	if !full {
		return
	}
	r.res.setHist("report_p50_ms", &reportLat[0], 0.5)
	r.res.set("query_per_s", float64(asked[0]+asked[1])/length.Seconds())
	// Quiescent means the merged cubes are never rebuilt.
	r.res.set("server.data_revisions", float64(revisions()-before))
}

// setCubeP50 emits a /cube median from per-kind latencies: the mean,
// over the question kinds asked, of each kind's median. A plain median
// over the pooled mix sits in a gap between the cheap and the dear kinds
// and jumps across it when their shares move by a sample. It returns
// the pooled histogram for the tail percentiles.
func setCubeP50(res *result, name string, byKind []hist) *hist {
	all := &hist{}
	sum, kinds := 0.0, 0
	for k := range byKind {
		if byKind[k].n > 0 {
			sum += byKind[k].ms(0.5)
			kinds++
			all.merge(&byKind[k])
		}
	}
	res.set(name, sum/float64(max(kinds, 1)))
	res.mu.Lock()
	res.samples[name] = all.n
	res.mu.Unlock()
	return all
}

// ask issues question `kind` of the mix. It returns when the answer was
// decoded — what latencies are taken to — and a hash of the answer.
// cubeOp names the client span of a cube question: the analyst under
// ingest and the quiescent mix are read apart in the trace.
func (r *run) ask(c *hod.Client, plant, cubeOp string, kind int, machines []string, line string) (done time.Time, sum uint64, err error) {
	var q hod.CubeQuery
	switch {
	case kind < 6:
		q = qMachineSlice(machines[kind%len(machines)])
	case kind == 6:
		q = qRollupLineSensor
	case kind == 7:
		q = hod.CubeQuery{Op: wire.CubeOpRollup, Keep: []string{"machine"}}
	case kind == 8:
		q = hod.CubeQuery{Op: wire.CubeOpDrilldown, Dim: "machine", Where: map[string]string{"line": line}}
	case kind == 9:
		q = hod.CubeQuery{Op: wire.CubeOpDrilldown, Dim: "phase", Where: map[string]string{"machine": machines[0]}}
	case kind == 10:
		q = hod.CubeQuery{Op: wire.CubeOpMembers, Dim: "job"}
	case kind == 11:
		roll, err := tracedCall(r.tr, r.ctx, "hod.rollup", func(ctx context.Context) (wire.RollupResponse, error) {
			return c.Rollup(ctx, plant, "machine")
		})
		return time.Now(), hashRollup(roll), err
	default:
		rep, err := tracedCall(r.tr, r.ctx, "hod.report", func(ctx context.Context) (wire.ReportResponse, error) {
			return c.Report(ctx, plant, hod.ReportQuery{Level: hod.LevelPhase, Top: 20})
		})
		return time.Now(), hashReport(rep), err
	}
	resp, err := tracedCall(r.tr, r.ctx, cubeOp, func(ctx context.Context) (wire.CubeResponse, error) {
		return c.Cube(ctx, plant, q)
	})
	return time.Now(), hashCube(resp), err
}

// The answer hashes walk the decoded structs instead of re-encoding
// them: the analysts' CPU is shared with the server under test.
type hasher struct{ h uint64 }

func newHasher() *hasher { return &hasher{14695981039346656037} } // FNV-1a offset basis

func (h *hasher) str(s string) {
	for i := 0; i < len(s); i++ {
		h.h = (h.h ^ uint64(s[i])) * 1099511628211
	}
	h.h = (h.h ^ 0xff) * 1099511628211
}

func (h *hasher) num(v uint64)  { h.h = (h.h ^ v) * 1099511628211 }
func (h *hasher) flt(v float64) { h.num(math.Float64bits(v)) }
func (h *hasher) strs(v []string) {
	h.num(uint64(len(v)))
	for _, s := range v {
		h.str(s)
	}
}

func hashCube(resp wire.CubeResponse) uint64 {
	h := newHasher()
	h.str(resp.Op)
	h.strs(resp.Dims)
	h.strs(resp.Where)
	h.strs(resp.Members)
	h.num(uint64(resp.TotalCells))
	for _, c := range resp.Cells {
		h.strs(c.Coord)
		h.num(uint64(c.Count))
		h.flt(c.Sum)
		h.flt(c.Mean)
		h.flt(c.Min)
		h.flt(c.Max)
	}
	return h.h
}

func hashRollup(resp wire.RollupResponse) uint64 {
	h := newHasher()
	h.str(resp.Level)
	for _, n := range resp.Nodes {
		h.str(n.Key)
		h.num(uint64(n.Count))
		h.flt(n.Mean)
		h.flt(n.Std)
		h.flt(n.Min)
		h.flt(n.Max)
	}
	return h.h
}

func hashReport(resp wire.ReportResponse) uint64 {
	h := newHasher()
	h.str(resp.Level)
	h.strs(resp.Machines)
	h.num(uint64(resp.TotalOutliers))
	for _, o := range resp.Outliers {
		h.str(o.Machine)
		h.str(o.Sensor)
		h.num(uint64(o.Level)<<40 | uint64(o.Index)<<20 | uint64(o.JobIndex))
		h.num(uint64(o.GlobalScore))
		h.flt(o.Outlierness)
		h.flt(o.Support)
	}
	for _, w := range resp.Warnings {
		h.str(w.Machine)
		h.str(w.Reason)
	}
	return h.h
}

// medianSetUp sets the workload up n times, tears all but the last one
// down again, and returns the last with the median of the n durations:
// set-up is short and dominated by allocation, so one sample of it
// swings more than anything the timed phases measure.
func medianSetUp[T any](n int, build func() (T, error), teardown func(T)) (T, time.Duration, error) {
	var (
		last  T
		took  []time.Duration
		empty T
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(last)
		}
		start := time.Now()
		rig, err := build()
		if err != nil {
			return empty, 0, err
		}
		took = append(took, time.Since(start))
		last = rig
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	return last, took[len(took)/2], nil
}
