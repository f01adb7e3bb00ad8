package main

import (
	"context"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

const livePlant = "live"

// liveCubeOp is the client span of a cube question asked under ingest.
const liveCubeOp = "hod.cube.live"

// The service-level objective of live-mixed: a batch is good when it
// was acknowledged within ackSLO and every subscriber saw it in the
// stats stream within pushSLO, both counted from when it was due.
const (
	ackSLO  = 25 * time.Millisecond
	pushSLO = 100 * time.Millisecond
)

// liveRig is a set-up live workload: one plant partly preloaded, the
// rest encoded as a time-major stream, subscribers attached.
type liveRig struct {
	trace     *trace
	bodies    [][]byte // the stream, liveBatch records each
	heldBack  [][]byte // the stream's last few batches, sent after it one at a time
	preloaded uint64
	exp       *expected
	sut       *sut
	subs      []*subscriber
}

// subscriber is one WebSocket client of the plant's stats and alerts
// channels. Its reader goroutine only appends to a preallocated log.
type subscriber struct {
	sub       *hod.Subscription
	cancel    context.CancelFunc
	done      chan struct{}
	events    []pushEvent
	coalesced int
	high      atomic.Uint64 // highest received_records seen, for the end-of-stream wait
}

type pushEvent struct {
	at       time.Time
	received uint64 // received_records the stats snapshot carried
}

func (s *subscriber) read(ctx context.Context) {
	defer close(s.done)
	for {
		ev, err := s.sub.Next(ctx)
		if err != nil {
			return // cancelled at the end of the run
		}
		if ev.Coalesced {
			s.coalesced++
		}
		if ev.Kind == wire.EventStats && ev.Stats != nil {
			s.events = append(s.events, pushEvent{time.Now(), ev.Stats.ReceivedRecords})
			s.high.Store(max(s.high.Load(), ev.Stats.ReceivedRecords))
		}
	}
}

func (rig *liveRig) tearDown() {
	for _, s := range rig.subs {
		s.cancel()
		_ = s.sub.Close()
		<-s.done
	}
	rig.sut.stop(true)
	_ = os.RemoveAll(rig.sut.opts.DataDir)
}

func (r *run) liveSetUp() (rig *liveRig, err error) {
	sz := r.size
	tr, err := simulateTrace(r.seed, sz.lines, sz.liveMachines, sz.liveJobs, sz.phaseSamples)
	if err != nil {
		return nil, err
	}
	preload := tr.jobRange(0, sz.livePreload)
	remaining := tr.total - len(preload)
	batches := min(int(sz.liveRate*sz.liveDuration.Seconds()), remaining/sz.liveBatch)
	// End on a job boundary: a plant whose last job stops mid-phase is a
	// shape no gateway produces.
	if row := len(tr.machines) * tr.perJob(); row%sz.liveBatch == 0 && batches >= row/sz.liveBatch {
		batches -= batches % (row / sz.liveBatch)
	}
	stream := tr.timeMajor(sz.livePreload, batches*sz.liveBatch)

	rig = &liveRig{trace: tr, preloaded: uint64(len(preload))}
	preBodies, err := encodeBodies(preload, sz.bulkBatch, false)
	if err != nil {
		return nil, err
	}
	if rig.bodies, err = encodeBodies(stream, sz.liveBatch, false); err != nil {
		return nil, err
	}
	cut := len(rig.bodies) - sz.coldRounds
	rig.bodies, rig.heldBack = rig.bodies[:cut], rig.bodies[cut:]
	sent := append(preload[:len(preload):len(preload)], stream...)
	if rig.exp, err = offlineExpected(tr.topology("offline"), sent, tr.machines[0]); err != nil {
		return nil, err
	}
	tr.release()
	dataDir, err := os.MkdirTemp(r.dir, "data-")
	if err != nil {
		return nil, err
	}
	if rig.sut, err = startSUT(serverOptions(dataDir), r.tr); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			rig.tearDown()
		}
	}()
	c := rig.sut.newClient()
	if _, err = c.Register(r.ctx, tr.topology(livePlant)); err != nil {
		return nil, err
	}
	for _, body := range preBodies {
		if _, err = c.IngestBody(r.ctx, livePlant, wire.ContentTypeBinary, body); err != nil {
			return nil, err
		}
	}
	if err = c.WaitDrained(r.ctx, livePlant, rig.preloaded); err != nil {
		return nil, err
	}
	for i := 0; i < sz.subscribers; i++ {
		ctx, cancel := context.WithCancel(r.ctx)
		sub, serr := c.Subscribe(ctx, wire.SubscribeRequest{Channels: []string{"stats:" + livePlant, "alerts:" + livePlant}})
		if serr != nil {
			cancel()
			return nil, serr
		}
		// Two shard folds per batch publish one stats event each.
		s := &subscriber{sub: sub, cancel: cancel, done: make(chan struct{}), events: make([]pushEvent, 0, 2*len(rig.bodies)+64)}
		rig.subs = append(rig.subs, s)
		go s.read(ctx)
	}
	return rig, nil
}

// batchLog is what the open loop recorded about one streamed batch.
type batchLog struct {
	due time.Time
	ack time.Duration // from due; meaningful only when ok
	ok  bool
	op  uint64 // the client span's op id, shared by the batch's delivery spans
}

func runLiveMixed(r *run) error {
	rig, err := r.liveServe()
	if err != nil || r.tr == nil {
		return err
	}
	// As in bulk: the replays run once the server and subscribers are gone.
	r.replayLayers(rig.trace, rig.exp, rig.bodies, r.size.liveBatch, false, true)
	r.replayHub()
	return nil
}

// liveServe is everything live-mixed does with its server; server and
// subscribers are torn down when it returns.
func (r *run) liveServe() (*liveRig, error) {
	rig, setup, err := medianSetUp(r.size.setups, r.liveSetUp, (*liveRig).tearDown)
	if err != nil {
		return nil, err
	}
	defer func() {
		rig.tearDown()
		rig.sut, rig.subs = nil, nil
	}()
	sz, res, s := r.size, r.res, rig.sut
	r.ingestBatch = sz.liveBatch
	res.set("setup_s", setup.Seconds())
	res.set("plant.simulate_ns_per_rec", float64(rig.trace.simulate.Nanoseconds())/float64(rig.trace.total))

	stats := s.newClient()
	before, err := stats.Stats(r.ctx, livePlant)
	if !res.ok(err) {
		return nil, err
	}
	stopPoll := r.pollQueues(s, []string{livePlant})

	// The stream: open loop, due times fixed in advance, no retries — a
	// shed batch is a failed batch. One connection carries it, as one
	// plant gateway would: two would race each other into the shard
	// queues, and a float sum folded in another order differs in its
	// last bit from the offline cube the oracle compares with. The
	// analyst runs beside it on its own schedule and connection.
	batches := make([]batchLog, len(rig.bodies))
	sender := s.newClient(hod.WithMaxRetries(0))
	analyst := s.newClient()
	queries := int(sz.queryRate * float64(len(rig.bodies)) / sz.liveRate)
	cubeLat, reportLat := make([]hist, queryKinds), &hist{}
	machines, line := rig.trace.machines, rig.trace.topology("x").Lines[0].ID
	liveKinds := []int{0, 6, 8, 9} // machine slice, rollup keep=line,sensor, the two drill-downs

	heap0, cpu0 := heapLive(), cpuSeconds()
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		openLoop(start, sz.queryRate, queries, 1, func(_, i int, due time.Time) {
			kind := liveKinds[i%len(liveKinds)]
			into := &cubeLat[kind]
			if i%20 == 9 { // every 20th slot asks for the report instead
				kind, into = 12, reportLat
			}
			done, _, err := r.ask(analyst, livePlant, liveCubeOp, kind, machines, line)
			into.record(done.Sub(due))
			res.ok(err)
		})
	}()
	late := openLoop(start, sz.liveRate, len(rig.bodies), 1, func(_, i int, due time.Time) {
		ctx, ref := r.tr.startOp(r.ctx, "hod.ingest")
		_, err := sender.IngestBody(ctx, livePlant, wire.ContentTypeBinary, rig.bodies[i])
		batches[i] = batchLog{due: due, ack: time.Since(due), ok: res.ok(err), op: ref.op}
		r.tr.end(ref.span)
	})
	lastAck := time.Now()
	streamed := uint64(len(rig.bodies) * sz.liveBatch)
	res.ok(stats.WaitDrained(r.ctx, livePlant, rig.preloaded+streamed))
	drained := time.Now()
	wg.Wait()
	cpu := cpuSeconds() - cpu0
	stopPoll()
	// Let the last events cross the sockets before the logs are read. A
	// late one already missed the SLO; one that never comes is a failed
	// delivery, so give up after two seconds.
	for _, sub := range rig.subs {
		for wait := time.Now(); sub.high.Load() < rig.preloaded+streamed && time.Since(wait) < 2*time.Second; {
			time.Sleep(time.Millisecond)
		}
		sub.cancel()
		<-sub.done
	}
	retained := heapLive() - heap0

	after, err := stats.Stats(r.ctx, livePlant)
	if !res.ok(err) {
		return nil, err
	}
	ack := &hist{}
	for _, b := range batches {
		if b.ok {
			ack.record(b.ack)
		}
	}
	ingestStats{
		records: float64(streamed), wall: drained.Sub(start), cpu: cpu, retained: retained,
		ack: ack, drainLag: drained.Sub(lastAck),
		retried: sender.Retried(), shed: after.ShedBatches, rejected: after.RejectedRecords,
	}.emit(res)
	res.setHist("server.ack_p99_ms", ack, 0.99)
	// The analyst's questions under ingest re-merge the cube on every
	// revision, on the same two cores as the writers, the hub and the
	// reports: between identical runs their latency swings half again as
	// much as the run's CPU cost does (README.md has the sets). Too much
	// to gate, so it is read beside the other live tails and the gated
	// cube_p50_ms is the quiescent mix below.
	all := setCubeP50(res, "server.cube_live_p50_ms", cubeLat)
	res.setHist("server.cube_live_p95_ms", all, 0.95)
	// Under ingest every report rebuilds every machine and runs Algorithm
	// 1 on the whole plant, beside the writers: too few and too contended
	// samples to gate, so the gated cold report is the verifier's.
	res.setHist("server.report_live_p50_ms", reportLat, 0.5)
	res.setHist("loadgen.late_p99_ms", late, 0.99)
	res.set("server.data_revisions", float64(after.DataRevision-before.DataRevision))
	res.set("server.cube_cells", float64(rig.exp.cubeSize))
	res.set("server.wal_segments", float64(after.WALSegments))
	_, walBytes := dirBytes(s.opts.DataDir)
	res.set("wal.bytes_per_rec", float64(walBytes)/float64(rig.preloaded+streamed))

	r.pushMetrics(rig, batches)

	// Cold reports on the quiescent plant. One plant has few machines, so
	// each held-back batch — it touches every machine — buys one more
	// round of them.
	v := &verifier{r: r, c: stats, machines: machines}
	v.coldReports(r.ctx, livePlant)
	for i, body := range rig.heldBack {
		_, err := sender.IngestBody(r.ctx, livePlant, wire.ContentTypeBinary, body)
		res.ok(err)
		res.ok(stats.WaitDrained(r.ctx, livePlant, rig.preloaded+streamed+uint64((i+1)*sz.liveBatch)))
		v.coldReports(r.ctx, livePlant)
	}
	v.verify(r.ctx, livePlant, rig.exp, nil)
	res.setHist("report_cold_p50_ms", &v.coldReport, 0.5)
	r.queryMix(s, []string{livePlant}, machines, line, stats, false)
	return rig, nil
}

// pushMetrics joins the batch log with what each subscriber saw. Batch
// k is visible at a subscriber from the first stats event whose
// received_records covers the preload and batches 0..k.
func (r *run) pushMetrics(rig *liveRig, batches []batchLog) {
	lag := &hist{}
	worst := make([]time.Duration, len(batches)) // slowest subscriber per batch
	seenBy := make([]int, len(batches))
	events, coalesced := 0, 0
	for _, sub := range rig.subs {
		events += len(sub.events)
		coalesced += sub.coalesced
		k, high := 0, uint64(0)
		for _, ev := range sub.events {
			high = max(high, ev.received)
			for k < len(batches) && rig.preloaded+uint64((k+1)*r.size.liveBatch) <= high {
				d := ev.at.Sub(batches[k].due)
				lag.record(d)
				worst[k] = max(worst[k], d)
				seenBy[k]++
				r.tr.add("gateway.delivery", batches[k].op, -1, batches[k].due, ev.at)
				k++
			}
		}
	}
	good := 0
	for k, b := range batches {
		delivered := seenBy[k] == len(rig.subs)
		r.res.ok(mismatch(delivered, "batch %d reached %d of %d subscribers", k, seenBy[k], len(rig.subs)))
		if b.ok && b.ack <= ackSLO && delivered && worst[k] <= pushSLO {
			good++
		}
	}
	r.res.setHist("push_lag_p50_ms", lag, 0.5)
	r.res.setHist("server.push_lag_p99_ms", lag, 0.99)
	r.res.set("slo_ok_ratio", float64(good)/float64(len(batches)))
	r.res.set("gateway.delivered_ratio", float64(events)/float64(len(rig.subs)*len(batches)))
	r.res.set("gateway.coalesced_events", float64(coalesced))
}
