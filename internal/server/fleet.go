package server

import (
	"fmt"
	"hash/fnv"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/olap"
	"repro/internal/plant"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/pkg/hod/wire"
)

// rollKey names one leaf of the roll-up tree — the accumulator of one
// sensor within one phase of one machine — plus the line the machine
// sits on. The leaves live in the machine stores, indexed by interned
// id; a query names the non-empty ones and folds them up the
// sensor→phase→machine→line→plant levels (stats.Online.Merge).
type rollKey struct {
	line, machine, phase, sensor string
}

// shardBatch is one admitted unit of work: the resolved records plus
// the WAL sequence they were logged under (0 when durability is off).
type shardBatch struct {
	seq  uint64
	refs []recordRef
}

// shard is one ingest pipeline: a bounded queue feeding a single
// worker goroutine that folds the machines hashed onto it. Per-machine
// ordering is therefore free. It holds no data: everything a fold
// writes lives in the machine stores (and the environment store), each
// behind its own mutex.
type shard struct {
	q *stream.Queue[shardBatch]

	// admitMu serializes WAL-append + enqueue so queue order equals
	// WAL sequence order — the invariant that makes foldedSeq a valid
	// compaction boundary. Only taken when durability is on.
	admitMu sync.Mutex

	// foldMu is held by the worker around each batch fold; the
	// snapshotter takes every shard's foldMu to capture a consistent
	// cut of the stores at a batch boundary.
	foldMu    sync.Mutex
	foldedSeq atomic.Uint64 // newest WAL seq folded into memory

	dead atomic.Bool // kill(): drop queued batches instead of folding
}

// Alert is one streaming detection event raised at ingest time by the
// per-sensor EWMA tracker — the live complement of the batch report.
// Its wire shape is shared with the typed client.
type Alert = wire.Alert

// plantState is the serving state of one registered plant: sharded
// ingest into the machine stores on the write side, one report view
// per data revision on the read side.
type plantState struct {
	topo Topology

	// in is the interned identifier universe assigned at registration
	// (plus the growable job table); mstores holds each machine's store
	// at its interned machine id, and shardOf precomputes each machine's
	// pipeline index so routing never hashes a string per record.
	in      *plantInterns
	shardOf []int32

	// ranks caches the cube's name order of the dictionaries in in, for
	// every /cube answer.
	ranks olap.Ranks

	mstores []*machineStore
	env     *envStore
	dataRev atomic.Uint64

	shards []*shard
	wg     sync.WaitGroup

	alertMu   sync.Mutex
	alerts    []Alert
	alertHead int
	alertSeq  uint64 // plant-wide alert sequence, assigned under alertMu

	// hub, when non-nil, fans fold-path events out to the live push
	// gateway. It is published to at batch boundaries only (end of
	// foldRefs) so event order follows the deterministic fold order,
	// and publishing never blocks — the hub's bounded coalescing
	// queues guarantee that.
	hub *gateway.Hub

	accepted atomic.Uint64 // fresh records folded in
	received atomic.Uint64 // valid records folded, incl. idempotent replays
	rejected atomic.Uint64 // records failing validation
	shed     atomic.Uint64 // batches refused with 429

	alertThreshold float64

	// dur is the durability attachment (nil when the server runs
	// without a data dir): per-shard WALs plus snapshot state.
	dur *plantDur

	// view is the read side at the current data revision, nil when no
	// report has asked for it since the revision last moved: bumpRev
	// drops it, so a streaming plant rests at its store. reportMu
	// serializes builds and guards the view's hier and reports memos;
	// the fold path never takes it.
	reportMu sync.Mutex
	view     atomic.Pointer[reportView]
}

// reportView is everything a report reads at one data revision: the
// plant assembled from the stores, the PlantCache its hierarchies
// share, the hierarchies built so far and the per-(machine, level)
// reports computed so far. snapshot builds it whole at a revision
// that has none, and the bump that moves the revision drops it whole
// (bumpRev): a view lives on after that only while a request still
// holds it. Nothing in it is carried across revisions: a report runs
// Algorithm 1's upward pass through plant-wide levels, so any change
// to the data can change any report.
type reportView struct {
	rev     uint64
	plant   *plant.Plant
	cache   *core.PlantCache
	hier    map[string]*core.Hierarchy
	reports map[reportKey]*core.Report
}

type reportKey struct {
	machine string
	level   core.Level
}

const alertRingCap = 512

func newPlantState(topo Topology) *plantState {
	ps := &plantState{
		topo: topo,
		in:   newPlantInterns(topo),
		env:  newEnvStore(len(topo.EnvSensors)),
	}
	ps.mstores = make([]*machineStore, ps.in.machines.Len())
	for id := range ps.mstores {
		ps.mstores[id] = newMachineStore(ps.in.machineLine[id], int32(id), len(topo.Phases), len(topo.Sensors))
	}
	return ps
}

// makeShards builds the shard queues without workers (split out so
// tests can exercise admission without a consumer).
func (ps *plantState) makeShards(shards, queueDepth int) {
	if shards < 1 {
		shards = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	ps.shards = make([]*shard, shards)
	for i := range ps.shards {
		ps.shards[i] = &shard{q: stream.NewQueue[shardBatch](queueDepth)}
	}
	// Shard routing is decided once per machine at registration — the
	// hash function is unchanged (so shard ownership survives restarts
	// and mixed-version clusters), it just never runs per record again.
	ps.shardOf = make([]int32, ps.in.machines.Len())
	for id, name := range ps.in.machines.Names() {
		ps.shardOf[id] = int32(hashShardIndex(name, len(ps.shards)))
	}
}

// start spins up the shard pipelines.
func (ps *plantState) start(shards, queueDepth int, alertThreshold float64) {
	ps.makeShards(shards, queueDepth)
	ps.alertThreshold = alertThreshold
	ps.spawn()
}

// spawn starts the shard workers over already-made shards — split from
// start so the durable open path can replay the WAL into quiescent
// shards first.
func (ps *plantState) spawn() {
	for _, sh := range ps.shards {
		ps.wg.Add(1)
		go ps.work(sh)
	}
}

// close stops admission, drains every shard's backlog, and — when
// durability is on — writes a final snapshot, compacts the WAL, and
// closes it.
func (ps *plantState) close() {
	for _, sh := range ps.shards {
		sh.q.Close()
	}
	ps.wg.Wait()
	if ps.dur != nil {
		_ = ps.writeSnapshot()
		ps.dur.close()
	}
}

// kill abandons the plant the way a crash would: queued batches are
// dropped unfolded and no final snapshot is taken, so recovery must
// come from snapshot + WAL replay alone. Test hook for the
// kill-and-restart recovery contract.
func (ps *plantState) kill() {
	for _, sh := range ps.shards {
		sh.dead.Store(true)
		sh.q.Close()
	}
	ps.wg.Wait()
	if ps.dur != nil {
		ps.dur.close()
	}
}

// hashShardIndex is the machine→shard placement function, evaluated
// once per machine when the shards are made.
func hashShardIndex(machine string, shards int) int {
	if shards == 1 || machine == "" {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(machine))
	return int(h.Sum32()) % shards
}

// work is the shard worker loop: fold each admitted batch into the
// stores.
func (ps *plantState) work(sh *shard) {
	defer ps.wg.Done()
	for {
		batch, ok := sh.q.Pop()
		if !ok {
			return
		}
		if sh.dead.Load() {
			continue // killed: simulate losing the backlog
		}
		sh.foldMu.Lock()
		ps.foldRefs(batch.refs)
		if batch.seq > 0 {
			sh.foldedSeq.Store(batch.seq)
		}
		sh.foldMu.Unlock()
	}
}

// foldRefs folds one admitted batch of interned records into the
// stores. It is the single ingest fold path: the shard workers run it
// live, and the durable open path replays snapshot-uncovered WAL
// entries through it — replay is idempotent by construction because the
// store reports replayed samples as not fresh, which skips the roll-up,
// cube and tracker side effects exactly like a client's 429 retry does.
// Every per-record step indexes with an id the record carries: the
// machine's store, then — under that store's mutex, taken once per run
// of same-machine records — the job, the grid, and from the grid's
// position the leaf, the cube cell and the tracker. No string is
// hashed, joined, or allocated between here and the stores.
func (ps *plantState) foldRefs(refs []recordRef) {
	var wrote bool
	var freshRecs uint64
	var newAlerts []Alert
	for rest := refs; len(rest) > 0; {
		n := 1
		for n < len(rest) && rest[n].machine == rest[0].machine {
			n++
		}
		run := rest[:n]
		rest = rest[n:]
		if run[0].machine < 0 {
			for _, ref := range run {
				fresh, changed := ps.env.set(ref.sensor, int(ref.t), ref.value)
				if fresh {
					freshRecs++
				}
				wrote = wrote || changed
			}
			continue
		}
		ms := ps.mstores[run[0].machine]
		ms.mu.Lock()
		for _, ref := range run {
			g, fresh, changed := ms.set(ref)
			wrote = wrote || changed // corrections must reach the next snapshot
			if !fresh {
				// Idempotent replay of an already-seen sample: the store
				// (and thus the report) carries any corrected value, but
				// the roll-up leaf, the cube cell and the alert tracker
				// fold each sample's first-seen value only — their
				// aggregates cannot retract an observation.
				continue
			}
			freshRecs++
			ms.leaves[int(ref.phase)*ms.nSensors+int(ref.sensor)].Add(ref.value)
			// Live traffic cannot fail the cube fold (admission guarantees
			// finite values) — but a WAL replay can still surface a sum
			// overflow the cell refuses. The store and roll-up still
			// folded it, so log the divergence instead of dropping it
			// silently: /v1/cube would otherwise undercount against
			// /v1/rollup with no operator signal.
			cell := &g.cells[ref.sensor]
			if cell.Count == 0 { // first fact: a finite value alone overflows nothing, so it lands
				cell.Coord = olap.IntCoord{ms.line, ms.id, ref.job, ref.phase, ref.sensor}
				ms.nCells++
			}
			if err := cell.Observe(ref.value); err != nil {
				log.Printf("server: plant %s: cube fold dropped sample (machine %s job %s phase %s sensor %s t %d): %v",
					ps.topo.ID, ps.in.machines.Name(ref.machine), ps.in.jobs.Name(ref.job),
					ps.in.phases.Name(ref.phase), ps.in.sensors.Name(ref.sensor), ref.t, err)
			}
			if score := ms.trackers[ref.sensor].Add(ref.value); score >= ps.alertThreshold {
				newAlerts = append(newAlerts, ps.pushAlert(Alert{
					Machine: ps.in.machines.Name(ref.machine), Phase: ps.in.phases.Name(ref.phase),
					Sensor: ps.in.sensors.Name(ref.sensor),
					T:      int(ref.t), Value: ref.value, Score: score,
				}))
			}
		}
		ms.mu.Unlock()
	}
	// Revision before counters: drain-watchers (Client.WaitDrained)
	// poll received_records, so by the time the counter covers this
	// batch the data revision must already reflect it — otherwise a
	// report issued right after the drain could hit the snapshot
	// fast path at the old revision and miss the final batch.
	if wrote {
		ps.bumpRev()
	}
	ps.accepted.Add(freshRecs)
	ps.received.Add(uint64(len(refs)))
	ps.publishBatchEvents(wrote, newAlerts)
}

// publishBatchEvents pushes this batch's fold results to the gateway
// hub: one alert event carrying the batch's newly raised alerts, a
// cube_delta notification when the data revision advanced, and a stats
// snapshot after every batch (counters move even on idempotent
// replay) — built only when someone subscribes to it, since it reads
// every shard. Runs at the foldMu batch boundary, so per-shard event
// order equals fold order; with no gateway attached it is a no-op.
func (ps *plantState) publishBatchEvents(wrote bool, newAlerts []Alert) {
	hub := ps.hub
	if hub == nil {
		return
	}
	if len(newAlerts) > 0 {
		hub.Publish(wire.Event{
			Kind: wire.EventAlert, Plant: ps.topo.ID,
			Seq: newAlerts[len(newAlerts)-1].Seq, Alerts: newAlerts,
		})
	}
	rev := ps.dataRev.Load()
	if wrote {
		hub.Publish(wire.Event{Kind: wire.EventCubeDelta, Plant: ps.topo.ID, Revision: rev})
	}
	if hub.Wants(wire.EventStats, ps.topo.ID) {
		st := ps.statsNow()
		hub.Publish(wire.Event{Kind: wire.EventStats, Plant: ps.topo.ID, Revision: rev, Stats: &st})
	}
}

// statsNow assembles the stats snapshot served by GET stats and
// carried by push stats events.
func (ps *plantState) statsNow() wire.StatsResponse {
	walSegments := 0
	var snapRev uint64
	if ps.dur != nil {
		walSegments = ps.dur.segments()
		snapRev = ps.dur.snapRev.Load()
	}
	return wire.StatsResponse{
		Plant:           ps.topo.ID,
		AcceptedRecords: ps.accepted.Load(),
		ReceivedRecords: ps.received.Load(),
		RejectedRecords: ps.rejected.Load(),
		ShedBatches:     ps.shed.Load(),
		DataRevision:    ps.dataRev.Load(),
		Shards:          len(ps.shards),
		QueueDepths:     ps.queueDepths(),
		WALSegments:     walSegments,
		SnapshotRev:     snapRev,
	}
}

// pushAlert stamps the alert with the next plant-wide sequence number
// and appends it to the ring, returning the stamped alert for the push
// path.
func (ps *plantState) pushAlert(a Alert) Alert {
	ps.alertMu.Lock()
	defer ps.alertMu.Unlock()
	ps.alertSeq++
	a.Seq = ps.alertSeq
	if len(ps.alerts) < alertRingCap {
		ps.alerts = append(ps.alerts, a)
		return a
	}
	ps.alerts[ps.alertHead] = a
	ps.alertHead = (ps.alertHead + 1) % alertRingCap
	return a
}

// recentAlerts returns up to limit alerts, oldest first.
func (ps *plantState) recentAlerts(limit int) []Alert {
	ps.alertMu.Lock()
	defer ps.alertMu.Unlock()
	out := make([]Alert, 0, len(ps.alerts))
	for i := 0; i < len(ps.alerts); i++ {
		out = append(out, ps.alerts[(ps.alertHead+i)%len(ps.alerts)])
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// bumpRev advances the data revision and releases the report view it
// makes stale — the one place the revision moves once a plant serves.
// It costs one atomic load per written batch, and a batch that writes
// nothing keeps the view.
func (ps *plantState) bumpRev() {
	ps.dataRev.Add(1)
	if ps.view.Load() != nil {
		ps.view.Store(nil)
	}
}

// snapshot returns the report view of the current data revision,
// assembling the plant from the stores when none is cached. The
// revision is read before the stores are, so a view never claims data
// it may lack. Callers must hold reportMu.
//
// The new view is published, then the revision re-checked. Go's
// atomics are sequentially consistent, so a bump whose Add follows the
// read of cur falls in one of two cases. Its Add precedes the re-check:
// the re-check sees the new revision and swaps v back out. Or its Add
// follows the re-check, and so its Load follows Store(v): it sees v
// and stores nil. Either way no stale view stays cached once the plant
// is quiescent. The caller still gets v, which answers as of cur.
func (ps *plantState) snapshot() (*reportView, error) {
	cur := ps.dataRev.Load()
	if v := ps.view.Load(); v != nil && v.rev == cur {
		return v, nil
	}
	var lines []*plant.Line
	for _, tl := range ps.topo.Lines {
		line := &plant.Line{ID: tl.ID}
		for _, mID := range tl.Machines {
			id, _ := ps.in.machines.ID(mID)
			m, err := buildMachine(ps.topo, tl.ID, mID, ps.mstores[id], ps.in.jobs)
			if err != nil {
				return nil, err
			}
			if m != nil {
				line.Machines = append(line.Machines, m)
			}
		}
		if len(line.Machines) > 0 {
			lines = append(lines, line)
		}
	}
	env, err := ps.env.build(ps.topo)
	if err != nil {
		return nil, err
	}
	p := &plant.Plant{Lines: lines, Environment: env, Start: assemblyStart, Step: time.Second}
	v := &reportView{
		rev: cur, plant: p, cache: core.NewPlantCache(p),
		hier: make(map[string]*core.Hierarchy), reports: make(map[reportKey]*core.Report),
	}
	ps.view.Store(v)
	if ps.dataRev.Load() != cur {
		ps.view.CompareAndSwap(v, nil)
	}
	return v, nil
}

// hierarchyFor returns (building if needed) the hierarchy of one
// machine over the view. Callers must hold reportMu.
func (v *reportView) hierarchyFor(machineID string) (*core.Hierarchy, error) {
	if h, ok := v.hier[machineID]; ok {
		return h, nil
	}
	h, err := core.NewHierarchyWithCache(v.plant, machineID, v.cache)
	if err != nil {
		return nil, err
	}
	v.hier[machineID] = h
	return h, nil
}

// activeMachines lists the machines present in the view, in topology
// order.
func (v *reportView) activeMachines() []string {
	var out []string
	for _, l := range v.plant.Lines {
		for _, m := range l.Machines {
			out = append(out, m.ID)
		}
	}
	return out
}

// rollup folds the machine stores' leaves up to the requested level:
// sensor, phase, machine, line, or plant. It returns the resolved level
// (the empty string defaults to "plant") so the handler echoes exactly
// what was computed instead of re-deriving the default. Leaves are
// merged in ascending (machine, phase, sensor) id order, which is the
// order the stores hold them in — the parallel Welford merge is not
// floating-point associative, so the order must be a function of the
// topology alone or last-ulp jitter would leak into responses (and
// break the byte-identical crash-recovery contract).
func (ps *plantState) rollup(level string) (string, []RollupNode, error) {
	resolved, keyFn, err := rollupKeyFn(level, ps.topo.ID)
	if err != nil {
		return "", nil, err
	}
	agg := make(map[string]stats.Online)
	for _, ms := range ps.mstores {
		k := rollKey{line: ps.in.lines.Name(ms.line), machine: ps.in.machines.Name(ms.id)}
		ms.mu.Lock()
		for ph, phase := range ps.topo.Phases {
			for s, sensor := range ps.topo.Sensors {
				leaf := ms.leaves[ph*ms.nSensors+s]
				if leaf.N() == 0 {
					continue
				}
				k.phase, k.sensor = phase, sensor
				key := keyFn(k)
				merged := agg[key]
				merged.Merge(leaf)
				agg[key] = merged
			}
		}
		ms.mu.Unlock()
	}
	keys := make([]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]RollupNode, 0, len(keys))
	for _, k := range keys {
		o := agg[k]
		out = append(out, RollupNode{
			Key: k, Count: o.N(), Mean: o.Mean(), Std: o.StdDev(),
			Min: o.Min(), Max: o.Max(),
		})
	}
	return resolved, out, nil
}

// RollupNode is one aggregate of the incremental roll-up tree; the
// wire shape is shared with the typed client.
type RollupNode = wire.RollupNode

// rollupKeyFn resolves a requested level name (empty = plant) into the
// canonical level it computes plus the leaf-grouping function.
func rollupKeyFn(level, plantID string) (string, func(rollKey) string, error) {
	switch level {
	case "sensor":
		return level, func(k rollKey) string { return k.machine + "/" + k.phase + "/" + k.sensor }, nil
	case "phase":
		return level, func(k rollKey) string { return k.machine + "/" + k.phase }, nil
	case "machine":
		return level, func(k rollKey) string { return k.machine }, nil
	case "line":
		return level, func(k rollKey) string { return k.line }, nil
	case "plant", "":
		return "plant", func(rollKey) string { return plantID }, nil
	default:
		return "", nil, fmt.Errorf("unknown rollup level %q (want sensor|phase|machine|line|plant)", level)
	}
}

// queueDepths reports per-shard backlog for the stats endpoint.
func (ps *plantState) queueDepths() []int {
	out := make([]int, len(ps.shards))
	for i, sh := range ps.shards {
		out[i] = sh.q.Len()
	}
	return out
}
