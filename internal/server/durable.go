package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/intern"
	"repro/internal/olap"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/pkg/hod/wire"
)

// The durability layer makes the ingest path survive crashes and
// restarts. Every accepted shard chunk is appended to a per-shard
// segmented WAL (internal/wal) before it is enqueued, and a background
// loop periodically snapshots the whole serving state of a plant —
// stores, roll-up leaves, alert ring, trackers, counters — compacting
// WAL segments the snapshot covers. On startup the state is rebuilt by
// applying the snapshot and replaying the WAL tail through the regular
// fold path; the idempotent set-at-index store makes over-replay
// harmless, so the recovery boundary only has to be conservative.

// walEntry is one durable unit of the legacy gob encoding: a shard
// chunk of validated records, or a batch of applied job metadata
// (shard 0's log). New record chunks are written as tagged binary
// frames (walRefTag below); gob remains for job metadata and for
// replaying logs written before the binary format existed.
type walEntry struct {
	Recs []wire.Record
	Jobs []wire.JobMeta
}

func encodeEntry(e walEntry) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeEntry(p []byte) (walEntry, error) {
	var e walEntry
	err := gob.NewDecoder(bytes.NewReader(p)).Decode(&e)
	return e, err
}

// walRefTag marks a WAL payload holding one wire.Frame (without its
// length prefix — the WAL already frames payloads) instead of a gob
// walEntry. A gob stream's first byte is an unsigned varint length in
// 0x01..0x7f (or a 0xf8..0xff length-of-length marker), so 0xB1 never
// collides with a legacy entry.
const walRefTag = 0xB1

// The admit path re-encodes each chunk into a frame without touching
// the JSON machinery; the scratch encode buffers and the replay-side
// decode frames are pooled so a steady ingest load allocates per batch,
// not per byte. wal.Log.AppendBuffered copies the payload synchronously,
// which is what makes returning the buffer to the pool right after the
// append safe.
var (
	walBufPool = sync.Pool{New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	}}
	walFramePool = sync.Pool{New: func() any { return new(wire.Frame) }}
)

// appendRefFrame encodes one admitted chunk onto dst as a wire.Frame.
// The identifier dictionaries are the plant's own intern tables (so the
// per-record columns are the interned ids verbatim, except jobs, which
// get a chunk-local dictionary to keep frames self-contained), and the
// sensor dictionary is walSensors — machine sensors followed by
// environment sensors — so environment refs encode without a separate
// marker column.
func (ps *plantState) appendRefFrame(dst []byte, f *wire.Frame, refs []recordRef) ([]byte, error) {
	f.Reset()
	f.Machines = append(f.Machines, ps.in.machines.Names()...)
	f.Phases = append(f.Phases, ps.in.phases.Names()...)
	f.Sensors = append(f.Sensors, ps.in.walSensors...)
	nSensors := int32(ps.in.sensors.Len())
	var jobLocal map[int32]int32
	for _, ref := range refs {
		if ref.machine < 0 {
			f.Machine = append(f.Machine, -1)
			f.Job = append(f.Job, -1)
			f.Phase = append(f.Phase, -1)
			f.Sensor = append(f.Sensor, nSensors+ref.sensor)
		} else {
			if jobLocal == nil {
				jobLocal = make(map[int32]int32, 8)
			}
			ji, ok := jobLocal[ref.job]
			if !ok {
				ji = int32(len(f.Jobs))
				f.Jobs = append(f.Jobs, ps.in.jobs.Name(ref.job))
				jobLocal[ref.job] = ji
			}
			f.Machine = append(f.Machine, ref.machine)
			f.Job = append(f.Job, ji)
			f.Phase = append(f.Phase, ref.phase)
			f.Sensor = append(f.Sensor, ref.sensor)
		}
		f.T = append(f.T, ref.t)
		f.Value = append(f.Value, ref.value)
	}
	out, err := wire.AppendFrame(dst, f)
	if err != nil {
		return dst, err
	}
	// Strip the length prefix AppendFrame wrote: the WAL length-frames
	// payloads itself, and replay hands the payload to DecodeFrame
	// directly.
	copy(out[len(dst):], out[len(dst)+4:])
	return out[:len(out)-4], nil
}

// Snapshot payload: the full serving state of one plant, captured at a
// shard batch boundary. ShardSeqs pins the WAL position the capture
// covers per shard — replay starts after it, compaction ends at it.
type (
	snapJob struct {
		Setup, CAQ      []float64
		Faulty, HasMeta bool
		Phases          map[string]map[string][]float64 // phase → sensor → samples
	}
	snapMachine struct {
		Rev  uint64
		Jobs map[string]snapJob
	}
	snapLeaf struct {
		Machine, Phase, Sensor string
		Roll                   stats.OnlineState
	}
	snapTracker struct {
		Machine, Sensor string
		EWMA            stats.EWMAState
	}
	snapCubeCell struct {
		Coord         []string // line, machine, job, phase, sensor
		Count         int
		Sum, Min, Max float64
	}
	snapState struct {
		Topo     wire.Topology
		Machines map[string]snapMachine
		Env      map[string][]float64
		EnvRev   uint64

		DataRev, Accepted, Received, Rejected, Shed uint64

		Leaves    []snapLeaf
		Trackers  []snapTracker
		CubeCells []snapCubeCell
		Alerts    []wire.Alert // oldest first
		AlertSeq  uint64       // plant-wide alert sequence high-water mark

		ShardSeqs   []uint64
		SnapshotRev uint64

		// JobInterns is the job intern table in id order, so a restore
		// reproduces the exact id assignment the snapshot was captured
		// under. Absent (nil) in snapshots from before interning; those
		// re-intern deterministically on apply.
		JobInterns []string
	}
)

func encodeState(st *snapState) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeState(p []byte) (*snapState, error) {
	var st snapState
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// plantDur is one plant's durability attachment: its directory, the
// per-shard WALs, and the snapshot bookkeeping.
type plantDur struct {
	dir         string
	logs        []*wal.Log
	syncOnAdmit bool       // fsync policy is SyncAlways: sync before the 202 ack
	snapMu      sync.Mutex // one snapshot/compaction at a time
	snapRev     atomic.Uint64
	stop        chan struct{}
	done        chan struct{}
}

func (d *plantDur) close() {
	if d.stop != nil {
		close(d.stop)
		<-d.done
		d.stop = nil
	}
	for _, l := range d.logs {
		_ = l.Close()
	}
}

func (d *plantDur) segments() int {
	n := 0
	for _, l := range d.logs {
		n += l.Segments()
	}
	return n
}

const (
	plantMetaName = "meta.json"
	walDirPrefix  = "wal-shard-"

	// maxRestoreBytes is the floor of the restore body cap — a backup
	// carries a whole plant, not one ingest batch.
	maxRestoreBytes = 1 << 30
)

// validateState applies the ingest path's job-vector gate to a decoded
// backup: oversized vectors would be silently truncated by padVector at
// report-build time and non-finite ones would poison the level-2
// detectors — exactly what handleJobs rejects with 400.
func validateState(st *snapState) error {
	for machineID, sm := range st.Machines {
		for jobID, sj := range sm.Jobs {
			if len(sj.Setup) > st.Topo.SetupDims || len(sj.CAQ) > st.Topo.CAQDims {
				return fmt.Errorf("backup: machine %s job %s: setup/caq vector longer than the topology dims (%d/%d)",
					machineID, jobID, st.Topo.SetupDims, st.Topo.CAQDims)
			}
			for _, v := range sj.Setup {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("backup: machine %s job %s: non-finite setup value", machineID, jobID)
				}
			}
			for _, v := range sj.CAQ {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("backup: machine %s job %s: non-finite caq value", machineID, jobID)
				}
			}
		}
	}
	// Cube cells are fed back through olap.AddAggregate on apply; a
	// forged backup must not smuggle past the gates the live ingest
	// path enforces — non-finite aggregates (ErrNonFinite), wrong
	// arity, empty cells, or coordinate members carrying control
	// characters (which could collide with the cube's reserved key
	// separator). Rejecting here keeps applyState's apply loop
	// infallible for vetted state.
	for _, cc := range st.CubeCells {
		if len(cc.Coord) != len(cubeDims) {
			return fmt.Errorf("backup: cube cell %v: %w: coordinate arity %d, want %d",
				cc.Coord, olap.ErrSchema, len(cc.Coord), len(cubeDims))
		}
		if cc.Count <= 0 {
			return fmt.Errorf("backup: cube cell %v: %w: count %d", cc.Coord, olap.ErrSchema, cc.Count)
		}
		for _, m := range cc.Coord {
			if err := wire.ValidIdent("cube member", m); err != nil {
				return fmt.Errorf("backup: %w: %v", olap.ErrSchema, err)
			}
		}
		for _, v := range []float64{cc.Sum, cc.Min, cc.Max} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("backup: cube cell %v: %w", cc.Coord, olap.ErrNonFinite)
			}
		}
	}
	return nil
}

func walDirName(i int) string { return fmt.Sprintf("%s%03d", walDirPrefix, i) }

// plantDirName maps a plant id onto a filesystem-safe directory name.
func plantDirName(id string) string { return url.PathEscape(id) }

func (s *Server) walOptions() (wal.Options, error) {
	pol, err := wal.ParseSyncPolicy(s.opts.Fsync)
	if err != nil {
		return wal.Options{}, err
	}
	return wal.Options{Policy: pol, SegmentBytes: s.opts.SegmentBytes}, nil
}

// attachDur opens (creating if needed) the plant's durability
// directory: one WAL per shard. Shards must already be made.
func (ps *plantState) attachDur(dir string, wopts wal.Options) error {
	d := &plantDur{dir: dir, syncOnAdmit: wopts.Policy == wal.SyncAlways}
	for i := range ps.shards {
		l, err := wal.Open(filepath.Join(dir, walDirName(i)), wopts)
		if err != nil {
			d.close()
			return err
		}
		d.logs = append(d.logs, l)
	}
	ps.dur = d
	return nil
}

// persistMeta writes the registered topology so a restart can rebuild
// the plant before any snapshot exists.
func persistMeta(dir string, topo Topology) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(topo, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, plantMetaName), append(buf, '\n'), 0o644)
}

// startSnapshotLoop snapshots the plant every interval until close.
func (ps *plantState) startSnapshotLoop(interval time.Duration) {
	d := ps.dur
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	go func() {
		defer close(d.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				if err := ps.writeSnapshot(); err != nil {
					// Swallowing this would mean unbounded WAL growth
					// with no operator signal; the next tick retries.
					log.Printf("server: snapshot of plant %s failed: %v", ps.topo.ID, err)
				}
			}
		}
	}()
}

// admit makes one shard chunk durable (when a WAL is attached) and
// enqueues it. admitMu keeps enqueue order equal to WAL sequence
// order, which is what lets foldedSeq act as the compaction boundary:
// every WAL entry at or below it is folded into memory. The fsync
// happens *after* admitMu is released: concurrent batches on a shard
// then share one group-committed fsync (wal.SyncTo) instead of
// serializing on the disk. If the fsync fails the caller returns 500
// — the batch may already be folding in memory, but the client never
// gets a 202 for data that is not on disk, and its retry is
// idempotent.
//
//hod:hotpath
func (ps *plantState) admit(idx int, chunk []recordRef) (bool, error) {
	sh := ps.shards[idx]
	if ps.dur == nil {
		return sh.q.TryPush(shardBatch{refs: chunk}), nil
	}
	bp := walBufPool.Get().(*[]byte)
	fr := walFramePool.Get().(*wire.Frame)
	payload, err := ps.appendRefFrame(append((*bp)[:0], walRefTag), fr, chunk)
	walFramePool.Put(fr)
	if err != nil {
		walBufPool.Put(bp)
		return false, err
	}
	log := ps.dur.logs[idx]
	sh.admitMu.Lock()
	//hod:allow(lockorder) admitMu exists to make WAL sequence order equal admit order; the buffered append is its critical section, and the fsync is group-committed after release via SyncTo
	seq, err := log.AppendBuffered(payload)
	// AppendBuffered copied the payload; the scratch buffer can go back
	// to the pool whatever happened next.
	*bp = payload
	walBufPool.Put(bp)
	if err != nil {
		sh.admitMu.Unlock()
		return false, err
	}
	// A full queue still sheds the batch with 429 even though its WAL
	// entry was written: depending on when the next snapshot compacts
	// past it, a crash-recovery may or may not fold it. Both outcomes
	// are within the 429 contract — the client was told the batch was
	// NOT admitted and must re-send, and its retry is idempotent
	// whether or not the shed entry resurfaced.
	admitted := sh.q.TryPush(shardBatch{seq: seq, refs: chunk})
	sh.admitMu.Unlock()
	if ps.dur.syncOnAdmit {
		if err := log.SyncTo(seq); err != nil {
			return admitted, err
		}
	}
	return admitted, nil
}

// appendJobs logs applied job metadata on shard 0's WAL. Metadata is
// applied to the store *before* this append: if the entry reaches the
// log, replaying it is idempotent; if the process dies in between, the
// client never got an ack and re-sends.
func (ps *plantState) appendJobs(metas []JobMeta) error {
	if ps.dur == nil || len(metas) == 0 {
		return nil
	}
	payload, err := encodeEntry(walEntry{Jobs: metas})
	if err != nil {
		return err
	}
	_, err = ps.dur.logs[0].Append(payload)
	return err
}

// captureState stops every shard worker at a batch boundary and copies
// the full serving state — the consistent cut that makes snapshot +
// WAL-tail replay reproduce exactly what an uninterrupted run holds.
func (ps *plantState) captureState() *snapState {
	for _, sh := range ps.shards {
		sh.foldMu.Lock()
	}
	defer func() {
		for _, sh := range ps.shards {
			sh.foldMu.Unlock()
		}
	}()

	st := &snapState{
		Topo:     ps.topo,
		Machines: make(map[string]snapMachine, len(ps.machines)),
		DataRev:  ps.dataRev.Load(),
		Accepted: ps.accepted.Load(),
		Received: ps.received.Load(),
		Rejected: ps.rejected.Load(),
		Shed:     ps.shed.Load(),
	}
	st.ShardSeqs = make([]uint64, len(ps.shards))
	for i, sh := range ps.shards {
		st.ShardSeqs[i] = sh.foldedSeq.Load()
	}
	st.JobInterns = ps.in.jobs.Names()
	for id, ms := range ps.machines {
		ms.mu.Lock()
		sm := snapMachine{Rev: ms.rev, Jobs: make(map[string]snapJob, len(ms.jobs))}
		for jid, js := range ms.jobs {
			sj := snapJob{
				Setup:   append([]float64(nil), js.setup...),
				CAQ:     append([]float64(nil), js.caq...),
				Faulty:  js.faulty,
				HasMeta: js.hasMeta,
				Phases:  make(map[string]map[string][]float64, len(js.phases)),
			}
			// The snapshot schema carries names, not ids: a backup must
			// restore into a process whose job-id assignment differs.
			for phID, g := range js.phases {
				if g == nil {
					continue
				}
				cells := make(map[string][]float64, len(g.bufs))
				for sID, buf := range g.bufs {
					if len(buf) == 0 {
						continue
					}
					cells[ps.topo.Sensors[sID]] = append([]float64(nil), buf...)
				}
				sj.Phases[ps.topo.Phases[phID]] = cells
			}
			sm.Jobs[jid] = sj
		}
		ms.mu.Unlock()
		st.Machines[id] = sm
	}
	ps.env.mu.Lock()
	st.EnvRev = ps.env.rev
	st.Env = make(map[string][]float64, len(ps.env.bufs))
	for id, buf := range ps.env.bufs {
		if len(buf) == 0 {
			continue
		}
		st.Env[ps.topo.EnvSensors[id]] = append([]float64(nil), buf...)
	}
	ps.env.mu.Unlock()
	for _, sh := range ps.shards {
		sh.rollMu.Lock()
		for k, o := range sh.roll {
			sk := ps.rollKeyOf(k)
			st.Leaves = append(st.Leaves, snapLeaf{Machine: sk.machine, Phase: sk.phase, Sensor: sk.sensor, Roll: o.State()})
		}
		for k, tr := range sh.trackers {
			st.Trackers = append(st.Trackers, snapTracker{
				Machine: ps.in.machines.Name(k.machine), Sensor: ps.in.sensors.Name(k.sensor), EWMA: tr.State(),
			})
		}
		sh.cube.Scan(func(cell *olap.IntCell) {
			st.CubeCells = append(st.CubeCells, snapCubeCell{
				Coord: ps.cubeCoordOf(cell.Coord),
				Count: cell.Count, Sum: cell.Sum, Min: cell.Min, Max: cell.Max,
			})
		})
		sh.rollMu.Unlock()
	}
	// The shard cubes iterate in map order; sort the translated cells so
	// two captures of the same state encode to the same bytes.
	sort.Slice(st.CubeCells, func(i, j int) bool {
		a, b := st.CubeCells[i].Coord, st.CubeCells[j].Coord
		for d := range a {
			if a[d] != b[d] {
				return a[d] < b[d]
			}
		}
		return false
	})
	st.Alerts = ps.recentAlerts(0)
	ps.alertMu.Lock()
	st.AlertSeq = ps.alertSeq
	ps.alertMu.Unlock()
	return st
}

// applyState loads a captured snapshot into a quiescent plantState
// (shards made, workers not yet spawned). Roll-up leaves and trackers
// are routed by the *current* machine→shard hash, so a restart with a
// different shard count still lands them where the worker expects.
func (ps *plantState) applyState(st *snapState) {
	// Reproduce the job-id assignment the snapshot was captured under;
	// snapshots from before interning carry no table, so re-intern in
	// sorted machine/job order — deterministic regardless of the map
	// iteration the capture side used.
	if st.JobInterns != nil {
		ps.in.jobs = intern.NewDyn(st.JobInterns)
	} else {
		machineIDs := make([]string, 0, len(st.Machines))
		for id := range st.Machines {
			machineIDs = append(machineIDs, id)
		}
		sort.Strings(machineIDs)
		for _, id := range machineIDs {
			jobIDs := make([]string, 0, len(st.Machines[id].Jobs))
			for jid := range st.Machines[id].Jobs {
				jobIDs = append(jobIDs, jid)
			}
			sort.Strings(jobIDs)
			for _, jid := range jobIDs {
				ps.in.jobs.Intern(jid)
			}
		}
	}
	for id, sm := range st.Machines {
		ms := ps.machines[id]
		if ms == nil {
			continue // machine no longer in the registered topology
		}
		ms.rev = sm.Rev
		for jid, sj := range sm.Jobs {
			js := &jobStore{
				setup:   append([]float64(nil), sj.Setup...),
				caq:     append([]float64(nil), sj.CAQ...),
				faulty:  sj.Faulty,
				hasMeta: sj.HasMeta,
				phases:  make([]*cellGrid, ms.nPhases),
			}
			for ph, cells := range sj.Phases {
				phID, ok := ps.in.phases.ID(ph)
				if !ok {
					log.Printf("server: plant %s: dropping snapshot phase %q (not in the registered topology)", ps.topo.ID, ph)
					continue
				}
				g := &cellGrid{bufs: make([][]float64, ms.nSensors)}
				for sensor, buf := range cells {
					sID, ok := ps.in.sensors.ID(sensor)
					if !ok {
						log.Printf("server: plant %s: dropping snapshot sensor %q (not in the registered topology)", ps.topo.ID, sensor)
						continue
					}
					g.bufs[sID] = append([]float64(nil), buf...)
				}
				js.phases[phID] = g
			}
			ms.jobs[jid] = js
			ms.jobsByID[ps.in.jobs.Intern(jid)] = js
		}
	}
	ps.env.rev = st.EnvRev
	for sensor, buf := range st.Env {
		id, ok := ps.in.envSensors.ID(sensor)
		if !ok {
			log.Printf("server: plant %s: dropping snapshot environment sensor %q", ps.topo.ID, sensor)
			continue
		}
		ps.env.bufs[id] = append([]float64(nil), buf...)
	}
	ps.dataRev.Store(st.DataRev)
	ps.accepted.Store(st.Accepted)
	ps.received.Store(st.Received)
	ps.rejected.Store(st.Rejected)
	ps.shed.Store(st.Shed)
	for _, lf := range st.Leaves {
		mid, ok1 := ps.in.machines.ID(lf.Machine)
		pid, ok2 := ps.in.phases.ID(lf.Phase)
		sid, ok3 := ps.in.sensors.ID(lf.Sensor)
		if !ok1 || !ok2 || !ok3 {
			log.Printf("server: plant %s: dropping snapshot roll-up leaf %s/%s/%s", ps.topo.ID, lf.Machine, lf.Phase, lf.Sensor)
			continue
		}
		sh := ps.shards[ps.shardOf[mid]]
		o := stats.OnlineFromState(lf.Roll)
		sh.roll[rollRef{machine: mid, phase: pid, sensor: sid}] = &o
	}
	for _, tk := range st.Trackers {
		mid, ok1 := ps.in.machines.ID(tk.Machine)
		sid, ok2 := ps.in.sensors.ID(tk.Sensor)
		if !ok1 || !ok2 {
			log.Printf("server: plant %s: dropping snapshot tracker %s/%s", ps.topo.ID, tk.Machine, tk.Sensor)
			continue
		}
		sh := ps.shards[ps.shardOf[mid]]
		sh.trackers[trackRef{machine: mid, sensor: sid}] = stats.EWMAFromState(tk.EWMA)
	}
	for _, cc := range st.CubeCells {
		if len(cc.Coord) != len(cubeDims) {
			continue // cube schema drift in an old snapshot
		}
		lid, ok0 := ps.in.lines.ID(cc.Coord[0])
		mid, ok1 := ps.in.machines.ID(cc.Coord[1])
		pid, ok2 := ps.in.phases.ID(cc.Coord[3])
		sid, ok3 := ps.in.sensors.ID(cc.Coord[4])
		if !ok0 || !ok1 || !ok2 || !ok3 {
			log.Printf("server: plant %s: dropping snapshot cube cell %v (coordinate not in the registered topology)", ps.topo.ID, cc.Coord)
			continue
		}
		coord := olap.IntCoord{lid, mid, ps.in.jobs.Intern(cc.Coord[2]), pid, sid}
		// Coord[1] is the machine: route the cell to the shard whose
		// worker folds that machine under the current shard count.
		// AddAggregate cannot fail on vetted state: our own snapshots
		// hold only cells the fold path accepted, and restore bodies
		// passed validateState (arity, count, finiteness, separator).
		sh := ps.shards[ps.shardOf[mid]]
		if err := sh.cube.AddAggregate(coord, cc.Count, cc.Sum, cc.Min, cc.Max); err != nil {
			log.Printf("server: plant %s: dropping malformed snapshot cube cell %v: %v", ps.topo.ID, cc.Coord, err)
		}
	}
	alerts := st.Alerts
	if len(alerts) > alertRingCap {
		alerts = alerts[len(alerts)-alertRingCap:]
	}
	ps.alerts = append([]Alert(nil), alerts...)
	ps.alertHead = 0
	// Resume the alert sequence past everything the snapshot carries —
	// snapshots from before the sequence existed gob-decode AlertSeq as
	// zero, so fall back to the ring's own high-water mark.
	ps.alertSeq = st.AlertSeq
	for _, a := range alerts {
		if a.Seq > ps.alertSeq {
			ps.alertSeq = a.Seq
		}
	}
}

// writeSnapshot captures, persists, and compacts: the snapshot file is
// replaced atomically, then every WAL segment it fully covers is
// deleted.
func (ps *plantState) writeSnapshot() error {
	d := ps.dur
	if d == nil {
		return nil
	}
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	st := ps.captureState()
	rev := d.snapRev.Load() + 1
	st.SnapshotRev = rev
	payload, err := encodeState(st)
	if err != nil {
		return err
	}
	if err := wal.SaveSnapshot(d.dir, rev, payload); err != nil {
		return err
	}
	d.snapRev.Store(rev)
	var firstErr error
	for i, l := range d.logs {
		if i >= len(st.ShardSeqs) {
			break
		}
		if err := l.CompactThrough(st.ShardSeqs[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// recover rebuilds the serving state from snapshot + WAL tail, replays
// through the regular fold path, then re-baselines: a fresh snapshot
// is written and fully covered segments are compacted away, so the
// next restart starts from a short tail.
func (ps *plantState) recover() error {
	d := ps.dur
	rev, payload, err := wal.LoadSnapshot(d.dir)
	if err != nil {
		return err
	}
	var shardSeqs []uint64
	if payload != nil {
		st, err := decodeState(payload)
		if err != nil {
			return err
		}
		ps.applyState(st)
		d.snapRev.Store(rev)
		shardSeqs = st.ShardSeqs
	}
	// If the shard count changed since the snapshot, the per-shard
	// boundaries no longer line up — replay everything; over-replay is
	// idempotent.
	aligned := len(shardSeqs) == len(d.logs)
	for i, l := range d.logs {
		var after uint64
		if aligned {
			after = shardSeqs[i]
		}
		if err := l.Replay(after, func(seq uint64, p []byte) error {
			if err := ps.replayPayload(p); err != nil {
				return err
			}
			ps.shards[i].foldedSeq.Store(seq)
			return nil
		}); err != nil {
			return err
		}
	}
	// WAL directories beyond the current shard count (the previous run
	// used more shards): replay them fully, then drop them after the
	// re-baseline snapshot has captured their contents.
	strays, err := ps.strayWalDirs()
	if err != nil {
		return err
	}
	for _, dir := range strays {
		l, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
		if err != nil {
			return err
		}
		err = l.Replay(0, func(_ uint64, p []byte) error {
			return ps.replayPayload(p)
		})
		l.Close()
		if err != nil {
			return err
		}
	}
	if err := ps.writeSnapshot(); err != nil {
		return err
	}
	for _, dir := range strays {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// replayPayload folds one WAL payload through the regular ingest path,
// dispatching on the leading tag byte: binary ref frames (walRefTag)
// re-resolve their dictionaries against the current intern tables;
// everything else is a legacy gob walEntry.
func (ps *plantState) replayPayload(p []byte) error {
	if len(p) > 0 && p[0] == walRefTag {
		var f wire.Frame
		if err := wire.DecodeFrame(p[1:], &f); err != nil {
			return err
		}
		refs, rejected, _ := ps.resolveFrame(nil, &f)
		ps.foldResolved(refs, rejected)
		return nil
	}
	ent, err := decodeEntry(p)
	if err != nil {
		return err
	}
	ps.replayEntry(ent)
	return nil
}

// replayEntry folds one legacy gob WAL entry.
func (ps *plantState) replayEntry(ent walEntry) {
	if len(ent.Recs) > 0 {
		refs, rejected, _ := ps.resolveRecords(nil, ent.Recs)
		ps.foldResolved(refs, rejected)
	}
	if len(ent.Jobs) > 0 {
		ps.applyJobMetas(ent.Jobs)
	}
}

// foldResolved folds re-resolved replay refs shard by shard. A record
// the current topology no longer resolves — the WAL was written under a
// different registration — counts as rejected, the same signal the live
// path gives its client.
func (ps *plantState) foldResolved(refs []recordRef, rejected int) {
	if rejected > 0 {
		ps.rejected.Add(uint64(rejected))
	}
	for idx, chunk := range ps.chunkRefs(refs) {
		if len(chunk) > 0 {
			ps.foldRefs(ps.shards[idx], chunk)
		}
	}
}

// applyJobMetas applies already-validated job metadata, advancing the
// data revision once if anything changed — shared by the HTTP handler
// and WAL replay.
func (ps *plantState) applyJobMetas(metas []JobMeta) {
	changed := false
	for _, m := range metas {
		ms := ps.machines[m.Machine]
		if ms == nil {
			continue // topology drift in a replayed entry
		}
		if ms.setMeta(ps.in.jobs.Intern(m.Job), m) {
			changed = true
		}
	}
	if changed {
		ps.dataRev.Add(1)
	}
}

func (ps *plantState) strayWalDirs() ([]string, error) {
	ents, err := os.ReadDir(ps.dur.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, walDirPrefix) {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimPrefix(name, walDirPrefix))
		if err != nil || idx < len(ps.shards) {
			continue
		}
		out = append(out, filepath.Join(ps.dur.dir, name))
	}
	return out, nil
}

// Open loads every plant persisted under Options.DataDir: topology
// from meta.json, state from snapshot + WAL replay. Call it once after
// New and before serving traffic; without a data dir it is a no-op.
func (s *Server) Open() error {
	if s.opts.DataDir == "" {
		return nil
	}
	if _, err := s.walOptions(); err != nil {
		return err // surface a bad -fsync value before first ingest
	}
	if err := os.MkdirAll(s.opts.DataDir, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(s.opts.DataDir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(s.opts.DataDir, e.Name(), plantMetaName)); err != nil {
			continue
		}
		if err := s.loadPlant(e.Name()); err != nil {
			return fmt.Errorf("server: recovering plant dir %s: %w", e.Name(), err)
		}
	}
	return nil
}

// persistNewPlant sets up the durability directory of a freshly
// registered plant: meta.json, empty WALs, and the snapshot loop.
// Called with s.mu held, before the plant becomes visible. On error —
// its own or a later one reported through the returned cleanup — the
// directory is removed again (when this call created it), so a restart
// cannot resurrect an empty ghost plant from a half-written meta.json
// and then refuse the operator's retry with 409.
func (s *Server) persistNewPlant(ps *plantState, topo Topology) (cleanup func(), err error) {
	wopts, err := s.walOptions()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(s.opts.DataDir, plantDirName(topo.ID))
	_, statErr := os.Stat(dir)
	created := os.IsNotExist(statErr)
	cleanup = func() {
		if ps.dur != nil {
			ps.dur.close()
			ps.dur = nil
		}
		if created {
			_ = os.RemoveAll(dir)
		}
	}
	if err := persistMeta(dir, topo); err != nil {
		cleanup()
		return nil, err
	}
	if err := ps.attachDur(dir, wopts); err != nil {
		cleanup()
		return nil, err
	}
	ps.startSnapshotLoop(s.opts.SnapshotInterval)
	return cleanup, nil
}

// loadPlant recovers one persisted plant directory into the registry.
func (s *Server) loadPlant(dirName string) error {
	dir := filepath.Join(s.opts.DataDir, dirName)
	buf, err := os.ReadFile(filepath.Join(dir, plantMetaName))
	if err != nil {
		return err
	}
	var topo Topology
	if err := json.Unmarshal(buf, &topo); err != nil {
		return err
	}
	topo = topoWithDefaults(topo)
	if err := topo.Validate(); err != nil {
		return err
	}
	wopts, err := s.walOptions()
	if err != nil {
		return err
	}
	ps := newPlantState(topo)
	ps.makeShards(s.opts.Shards, s.opts.QueueDepth)
	ps.alertThreshold = s.opts.AlertThreshold
	if err := ps.attachDur(dir, wopts); err != nil {
		return err
	}
	if err := ps.recover(); err != nil {
		ps.dur.close()
		return err
	}
	// Attach the push hook only after recovery: WAL replay rebuilds
	// state through the same fold path, and replaying history must not
	// re-emit it to live subscribers.
	ps.publish = s.hub.Publish
	ps.spawn()
	ps.startSnapshotLoop(s.opts.SnapshotInterval)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.plants[topo.ID]; exists {
		//hod:allow(lockorder) startup-only duplicate-load bail-out: the half-built plant never served traffic, so abandoning its goroutines under the fleet lock cannot stall a request
		ps.kill()
		return fmt.Errorf("plant %q loaded twice", topo.ID)
	}
	s.plants[topo.ID] = ps
	return nil
}
