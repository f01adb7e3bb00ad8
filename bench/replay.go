package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/intern"
	"repro/internal/olap"
	"repro/internal/plant"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

// Replays push a workload's own inputs through one layer's exported
// functions in isolation, inside a span. They run on the traced pass
// only, after the workload, and each is bounded by size.replayBudget.

// loop calls fn until the replay budget is spent (at least once),
// records the whole as a replay span, and returns the mean time per
// call and the number of calls.
func (r *run) loop(name string, fn func()) (perCall float64, calls int) {
	start := time.Now()
	for {
		fn()
		calls++
		if time.Since(start) >= r.size.replayBudget {
			break
		}
	}
	end := time.Now()
	r.tr.add("replay."+name, 0, -1, start, end)
	return float64(end.Sub(start)) / float64(calls), calls
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replayLayers runs the replays every workload shares plus the codec
// and WAL ones that match how the workload ingested.
func (r *run) replayLayers(tr *trace, exp *expected, bodies [][]byte, batch int, ndjson, durable bool) {
	tr.load()
	if ndjson {
		r.replayNDJSON(tr, bodies, batch)
	} else {
		r.replayFrames(bodies, batch)
	}
	r.replayIntern(tr)
	if durable {
		r.replayWAL(bodies, batch)
	}
	r.replayCube(tr)
	r.replayAnswers(exp, tr)
	r.replayAlgorithm1(tr)
	r.replayQueue()
}

func (r *run) replayFrames(bodies [][]byte, batch int) {
	var (
		fr    wire.Frame
		bytes int
	)
	for _, b := range bodies {
		bytes += len(b)
	}
	i := 0
	before := mallocs()
	per, calls := r.loop("wire.frame_decode", func() {
		// A body is one length-prefixed frame; DecodeFrame takes the payload.
		if err := wire.DecodeFrame(bodies[i%len(bodies)][4:], &fr); err != nil {
			r.res.ok(err)
		}
		i++
	})
	allocs := mallocs() - before
	r.res.set("wire.frame_decode_ns_per_rec", per/float64(batch))
	r.res.set("wire.frame_decode_allocs_per_batch", float64(allocs)/float64(calls))
	r.res.set("wire.frame_bytes_per_rec", float64(bytes)/float64(len(bodies)*batch))
	var dst []byte
	per, _ = r.loop("wire.frame_encode", func() {
		var err error
		if dst, err = wire.AppendFrame(dst[:0], &fr); err != nil {
			r.res.ok(err)
		}
	})
	r.res.set("wire.frame_encode_ns_per_rec", per/float64(fr.Len()))
}

func (r *run) replayNDJSON(tr *trace, bodies [][]byte, batch int) {
	size := 0
	for _, b := range bodies {
		size += len(b)
	}
	i := 0
	before := mallocs()
	per, calls := r.loop("wire.ndjson_decode", func() {
		if _, err := wire.DecodeNDJSON(bytes.NewReader(bodies[i%len(bodies)])); err != nil {
			r.res.ok(err)
		}
		i++
	})
	allocs := mallocs() - before
	r.res.set("wire.ndjson_decode_ns_per_rec", per/float64(batch))
	r.res.set("wire.ndjson_decode_allocs_per_rec", float64(allocs)/float64(calls*batch))
	r.res.set("wire.ndjson_bytes_per_rec", float64(size)/float64(tr.total))
	per, _ = r.loop("wire.ndjson_encode", func() {
		if _, err := wire.EncodeNDJSON(tr.recs[:batch]); err != nil {
			r.res.ok(err)
		}
	})
	r.res.set("wire.ndjson_encode_ns_per_rec", per/float64(batch))
}

// replayIntern looks up the names of the trace the way resolveRecords
// does per NDJSON record (and resolveFrame per dictionary entry).
func (r *run) replayIntern(tr *trace) {
	seen := map[string]bool{}
	var names []string
	for _, rec := range tr.recs[:min(len(tr.recs), 1<<16)] {
		for _, n := range []string{rec.Machine, rec.Job, rec.Phase, rec.Sensor} {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	table := intern.New(names)
	per, _ := r.loop("intern.lookup", func() {
		for _, rec := range tr.recs[:1024] {
			table.ID(rec.Machine)
			table.ID(rec.Job)
			table.ID(rec.Phase)
			table.ID(rec.Sensor)
		}
	})
	r.res.set("intern.lookup_ns", per/(4*1024))
}

// replayWAL appends frame-sized payloads to a log of its own under each
// sync policy, then replays what it wrote.
func (r *run) replayWAL(bodies [][]byte, batch int) {
	payload := bodies[0]
	appendAll := func(name string, policy wal.SyncPolicy, appenders int) (perAppend float64, appends int, log *wal.Log) {
		dir, err := os.MkdirTemp(r.dir, "wal-")
		if !r.res.ok(err) {
			return 0, 0, nil
		}
		log, err = wal.Open(dir, wal.Options{Policy: policy})
		if !r.res.ok(err) {
			return 0, 0, nil
		}
		counts := make([]int, appenders)
		start := time.Now()
		closedLoop(appenders, func(w int) {
			for time.Since(start) < r.size.replayBudget || counts[w] == 0 {
				if _, err := log.Append(payload); err != nil {
					r.res.ok(err)
					return
				}
				counts[w]++
			}
		})
		end := time.Now()
		r.tr.add("replay."+name, 0, -1, start, end)
		for _, n := range counts {
			appends += n
		}
		// What one appender waits per append: wall time over its own share.
		return float64(end.Sub(start)) * float64(appenders) / float64(appends), appends, log
	}
	per, _, log := appendAll("wal.append_always_c1", wal.SyncAlways, 1)
	closeLog(log)
	r.res.set("wal.append_always_us_per_batch_c1", per/1e3)
	per, _, log = appendAll("wal.append_always_c2", wal.SyncAlways, 2)
	closeLog(log)
	r.res.set("wal.append_always_us_per_batch_c2", per/1e3)
	per, appends, log := appendAll("wal.append_none", wal.SyncNone, 1)
	r.res.set("wal.append_none_ns_per_rec", per/float64(batch))
	if log == nil {
		return
	}
	start := time.Now()
	frames := 0
	err := log.Replay(0, func(uint64, []byte) error { frames++; return nil })
	took := time.Since(start)
	r.tr.add("replay.wal.replay", 0, -1, start, start.Add(took))
	if r.res.ok(err) {
		r.res.ok(mismatch(frames == appends, "wal replay returned %d frames of %d appended", frames, appends))
	}
	closeLog(log)
	r.res.set("wal.replay_ns_per_rec", float64(took)/float64(max(frames, 1)*batch))
}

func closeLog(l *wal.Log) {
	if l != nil {
		_ = l.Close()
	}
}

// replaySnapshot saves and loads a real plant snapshot (a backup body)
// through the snapshot file codec.
func (r *run) replaySnapshot(backup []byte) {
	rev, payload, err := wal.DecodeSnapshot(backup)
	if !r.res.ok(err) {
		return
	}
	dir, err := os.MkdirTemp(r.dir, "snap-")
	if !r.res.ok(err) {
		return
	}
	per, _ := r.loop("wal.snapshot_save", func() { r.res.ok(wal.SaveSnapshot(dir, rev+1, payload)) })
	r.res.set("wal.snapshot_save_ms", per/1e6)
	per, _ = r.loop("wal.snapshot_load", func() {
		_, _, err := wal.LoadSnapshot(dir)
		r.res.ok(err)
	})
	r.res.set("wal.snapshot_load_ms", per/1e6)
}

// replayCube prices the three cube stages separately: folding a fact
// into the int cube (ingest, in both arrival orders), translating every
// cell into the string cube (what each new revision costs a query), and
// answering on the finished cube.
func (r *run) replayCube(tr *trace) {
	phases, sensors, samples := len(plant.PhaseNames), len(plant.SensorNames), tr.cfg.PhaseSamples
	machines, jobs, lines := len(tr.machines), tr.jobs, tr.cfg.Lines
	perLine := machines / lines
	coord := func(m, j, ph, s int) olap.IntCoord {
		return olap.IntCoord{int32(m / perLine), int32(m), int32(j), int32(ph), int32(s)}
	}
	limit := min(len(tr.recs), 1<<19)
	traceOrder := make([]olap.IntCoord, 0, limit)
	for m := 0; m < machines && len(traceOrder) < limit; m++ {
		for j := 0; j < jobs; j++ {
			for c := 0; c < phases*sensors; c++ {
				for t := 0; t < samples && len(traceOrder) < limit; t++ {
					traceOrder = append(traceOrder, coord(m, j, c/sensors, c%sensors))
				}
			}
		}
	}
	liveOrder := make([]olap.IntCoord, 0, limit)
	for j := 0; j < jobs && len(liveOrder) < limit; j++ {
		for ph := 0; ph < phases; ph++ {
			for t := 0; t < samples; t++ {
				for m := 0; m < machines; m++ {
					for s := 0; s < sensors && len(liveOrder) < limit; s++ {
						liveOrder = append(liveOrder, coord(m, j, ph, s))
					}
				}
			}
		}
	}
	for _, o := range []struct {
		name  string
		order []olap.IntCoord
	}{{"trace", traceOrder}, {"live", liveOrder}} {
		per, _ := r.loop("olap.intcube_add_"+o.name, func() {
			cube := olap.NewIntCube()
			for i, c := range o.order {
				if err := cube.AddFact(c, tr.recs[i].Value); err != nil {
					r.res.ok(err)
					return
				}
			}
		})
		r.res.set("olap.intcube_add_ns_per_rec_"+o.name, per/float64(len(o.order)))
	}

	topo := tr.topology("x")
	var cells [][]string
	for m, id := range tr.machines {
		for j := 0; j < jobs; j++ {
			job := tr.recs[(m*jobs+j)*tr.perJob()].Job
			for _, ph := range plant.PhaseNames {
				for _, s := range plant.SensorNames {
					cells = append(cells, []string{topo.Lines[m/perLine].ID, id, job, ph, s})
				}
			}
		}
	}
	per, _ := r.loop("olap.merge", func() {
		cube, err := olap.New(wire.CubeDims()...)
		if err != nil {
			r.res.ok(err)
			return
		}
		for _, c := range cells {
			if err := cube.AddAggregate(c, samples, 1, 0, 1); err != nil {
				r.res.ok(err)
				return
			}
		}
	})
	r.res.set("olap.merge_ns_per_cell", per/float64(len(cells)))
}

// replayAnswers evaluates the analyst's three question shapes on the
// offline cube, with no HTTP and no encoding around them.
func (r *run) replayAnswers(exp *expected, tr *trace) {
	line := tr.topology("x").Lines[0].ID
	for _, q := range []struct {
		name  string
		query hod.CubeQuery
	}{
		{"slice", qMachineSlice(exp.machine)},
		{"rollup", qRollupLineSensor},
		{"drilldown", hod.CubeQuery{Op: wire.CubeOpDrilldown, Dim: "machine", Where: map[string]string{"line": line}}},
	} {
		cellsOut := 0
		per, _ := r.loop("olap.answer_"+q.name, func() {
			resp, err := exp.cube.Query(q.query)
			if err != nil {
				r.res.ok(err)
			}
			cellsOut = len(resp.Cells)
		})
		r.res.set("olap.answer_"+q.name+"_us", per/1e3)
		if q.name == "slice" {
			r.res.set("olap.answer_cells_out", float64(cellsOut))
		}
	}
}

// replayAlgorithm1 runs the paper's Algorithm 1 per machine the way a
// cold /report does (fresh hierarchy) and the way a report after new
// data does (hierarchy rebound onto a rebuilt plant).
func (r *run) replayAlgorithm1(tr *trace) {
	p, err := plant.Simulate(tr.cfg)
	if !r.res.ok(err) {
		return
	}
	opts := core.Options{MaxOutliers: 512} // the server's default
	cache := core.NewPlantCache(p)
	hier := make([]*core.Hierarchy, len(tr.machines))
	i := 0
	per, _ := r.loop("core.alg1", func() {
		m := i % len(tr.machines)
		i++
		cache.InvalidateMachine(tr.machines[m])
		h, err := core.NewHierarchyWithCache(p, tr.machines[m], cache)
		if err == nil {
			_, err = core.FindHierarchicalOutliers(h, core.LevelPhase, opts)
		}
		if err != nil {
			r.res.ok(err)
		}
		hier[m] = h
	})
	r.res.set("core.alg1_ms_per_machine", per/1e6)
	i = 0
	per, _ = r.loop("core.alg1_rebound", func() {
		m := i % len(tr.machines)
		i++
		if hier[m] == nil {
			return
		}
		cache.Rebind(p)
		cache.InvalidateMachine(tr.machines[m])
		err := hier[m].Rebind(p, cache)
		if err == nil {
			_, err = core.FindHierarchicalOutliers(hier[m], core.LevelPhase, opts)
		}
		if err != nil {
			r.res.ok(err)
		}
	})
	r.res.set("core.alg1_rebound_ms_per_machine", per/1e6)
}

func (r *run) replayQueue() {
	q := stream.NewQueue[int](64)
	per, _ := r.loop("stream.queue", func() {
		for i := 0; i < 1024; i++ {
			q.TryPush(i)
			q.Pop()
		}
	})
	r.res.set("stream.queue_push_pop_ns", per/1024)
}

// replayHub publishes stats events into a hub with 1, 100 and 1000
// subscribers of the plant's channel, and drains one subscriber.
func (r *run) replayHub() {
	ev := func(plant string) wire.Event {
		return wire.Event{Kind: wire.EventStats, Plant: plant, Revision: 1, Stats: &wire.StatsResponse{Plant: plant}}
	}
	for _, n := range []int{1, 100, 1000} {
		hub := gateway.NewHub()
		for i := 0; i < n; i++ {
			hub.Subscribe([]wire.Channel{{Kind: wire.EventStats, Plant: livePlant}}, nil, 0)
		}
		one := ev(livePlant)
		per, _ := r.loop(fmt.Sprintf("gateway.publish_s%d", n), func() { hub.Publish(one) })
		r.res.set(fmt.Sprintf("gateway.publish_ns_s%d", n), per)
		hub.Close()
	}
	// Next on a queue holding one event per slot: distinct plants are
	// distinct slots, so nothing coalesces.
	const slots = 128
	hub := gateway.NewHub()
	sub := hub.Subscribe([]wire.Channel{{Kind: wire.EventStats, Plant: "*"}}, nil, 0)
	events := make([]wire.Event, slots)
	for i := range events {
		events[i] = ev(fmt.Sprintf("p%d", i))
	}
	var spent time.Duration
	calls := 0
	r.loop("gateway.next", func() {
		for _, e := range events {
			hub.Publish(e)
		}
		start := time.Now()
		for range events {
			sub.Next(r.ctx)
		}
		spent += time.Since(start)
		calls += slots
	})
	hub.Close()
	r.res.set("gateway.next_ns", float64(spent)/float64(calls))
}

// replayCluster prices the one proxy hop of the cluster router: the
// same batches into a one-node cluster, straight to the node and through
// the router's handler.
func (r *run) replayCluster(tr *trace, bodies [][]byte) {
	const batches = 200
	dir, err := os.MkdirTemp(r.dir, "cluster-")
	if !r.res.ok(err) {
		return
	}
	opts := serverOptions(dir)
	opts.ClusterNodeID = "n1"
	node, err := startSUT(opts, nil)
	if !r.res.ok(err) {
		return
	}
	defer node.stop(true)
	rt, err := cluster.NewRouter(cluster.RouterOptions{Peers: []wire.ClusterNode{{ID: "n1", Addr: node.base}}})
	if !r.res.ok(err) || !r.res.ok(rt.Bootstrap()) {
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if !r.res.ok(err) {
		return
	}
	defer rt.ServeListener(ln)() // the stop func closes the router too
	routed := "http://" + ln.Addr().String()

	feed := func(name, base, plantID string) float64 {
		c := hod.NewClient(base)
		if _, err := c.Register(r.ctx, tr.topology(plantID)); !r.res.ok(err) {
			return 0
		}
		n := min(batches, len(bodies))
		start := time.Now()
		for _, body := range bodies[:n] {
			_, err := c.IngestBody(r.ctx, plantID, wire.ContentTypeBinary, body)
			r.res.ok(err)
		}
		end := time.Now()
		r.tr.add("replay."+name, 0, -1, start, end)
		return float64(end.Sub(start)) / float64(n) / 1e3
	}
	// Direct first: with one node both plants land on it, so the routed
	// leg differs by the hop alone.
	r.res.set("cluster.direct_us_per_batch", feed("cluster.direct", node.base, "direct"))
	r.res.set("cluster.route_us_per_batch", feed("cluster.route", routed, "routed"))

	mem := wire.ClusterMembership{Epoch: 1}
	for i := 0; i < 3; i++ {
		mem.Nodes = append(mem.Nodes, wire.ClusterNode{ID: fmt.Sprintf("n%d", i+1), State: wire.NodeActive})
	}
	per, _ := r.loop("cluster.placement", func() {
		for i := 0; i < 256; i++ {
			cluster.Placement(mem, tr.machines[i%len(tr.machines)])
		}
	})
	r.res.set("cluster.placement_ns", per/256)
}

// spanMetrics derives the in-situ layer metrics from the traced pass's
// spans: handler time per route, and the client operation's self time —
// what is left of a request once the server's share is taken out, i.e.
// SDK, net/http and the loopback socket.
func (r *run) spanMetrics(spans []span, recordsPerBatch int) {
	// The handler cannot tell the analyst under ingest from the quiescent
	// mix; the client span that caused its span can.
	for i, s := range spans {
		if s.Name == "server.handler.cube" && s.Parent >= 0 && spans[s.Parent].Name == liveCubeOp {
			spans[i].Name = "server.handler.cube.live"
		}
	}
	dur, self := layerTimes(spans)
	us := func(h *hist) float64 {
		if h == nil {
			return 0
		}
		return h.quantile(0.5) / 1e3
	}
	r.res.set("server.ingest_handler_us", us(dur["server.handler.ingest"]))
	r.res.set("server.ingest_handler_ns_per_rec", us(dur["server.handler.ingest"])*1e3/float64(recordsPerBatch))
	r.res.set("server.cube_handler_us", us(dur["server.handler.cube"]))
	if r.res.workload == wLive {
		r.res.set("server.cube_live_handler_us", us(dur["server.handler.cube.live"]))
	}
	r.res.set("server.report_handler_us", us(dur["server.handler.report"]))
	r.res.set("server.rollup_handler_us", us(dur["server.handler.rollup"]))
	r.res.set("hod.ingest_client_us", us(self["hod.ingest"]))
	query := &hist{}
	for _, name := range []string{"hod.cube", liveCubeOp, "hod.report", "hod.rollup"} {
		if h := self[name]; h != nil {
			query.merge(h)
		}
	}
	r.res.set("hod.query_client_us", us(query))
}
