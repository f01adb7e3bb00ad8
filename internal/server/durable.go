package server

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"slices"
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
// the stores (samples, roll-up leaves, trackers, cube cells), the alert
// ring, the counters — compacting WAL segments the snapshot covers. On
// startup the state is rebuilt by applying the snapshot and replaying
// the WAL tail through the regular fold path; the idempotent
// set-at-index store makes over-replay harmless, so the recovery
// boundary only has to be conservative.
//
// Both durable forms are interned state next to the dictionaries that
// define its ids. A WAL frame carries its own (machines, phases,
// sensors, jobs) dictionaries and resolves against whatever plant
// replays it; a snapshot carries the topology and the job table and is
// only ever applied to a plant built from that same topology, so its
// positions index the store directly — it mirrors the store, machine by
// machine, and holds nothing per shard but the WAL positions.

// A WAL payload is one tagged entry: a shard chunk of admitted records
// as a wire.Frame (without its length prefix — the WAL already frames
// payloads), or, on shard 0's log, a batch of applied job metadata as
// the JSON []wire.JobMeta handleJobs validated.
const (
	walRefTag  = 0xB1
	walJobsTag = 0xB2
)

var errWalTag = errors.New("unknown WAL entry tag")

// decodeWalEntry decodes one WAL payload into what it carries: a record
// frame or job metadata, never both.
func decodeWalEntry(p []byte) (*wire.Frame, []JobMeta, error) {
	if len(p) == 0 {
		return nil, nil, fmt.Errorf("%w: empty entry", errWalTag)
	}
	switch p[0] {
	case walRefTag:
		f := new(wire.Frame)
		if err := wire.DecodeFrame(p[1:], f); err != nil {
			return nil, nil, err
		}
		return f, nil, nil
	case walJobsTag:
		var metas []JobMeta
		if err := json.Unmarshal(p[1:], &metas); err != nil {
			return nil, nil, fmt.Errorf("job metadata entry: %w", err)
		}
		return nil, metas, nil
	}
	return nil, nil, fmt.Errorf("%w 0x%02x", errWalTag, p[0])
}

// The admit path re-encodes each chunk into a frame without touching
// the JSON machinery; its scratch encode buffers and frames are pooled
// so a steady ingest load allocates per batch, not per byte. wal.Log.AppendBuffered copies the payload synchronously,
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
// shard batch boundary, in the shape the store holds it. Topo (in
// registration order) and JobInterns are the dictionaries; every other
// identifier is a position in an id-indexed slice, and every such slice
// may stop short of its dictionary. Nothing in it is per shard except
// ShardSeqs, which pins the WAL position the capture covers per shard —
// replay starts after it, compaction ends at it.
type (
	snapCell struct { // one cube cell; Count 0 where no fact landed
		Count         int
		Sum, Min, Max float64
	}
	snapJob struct {
		Job             int32 // index into JobInterns
		Setup, CAQ      []float64
		Faulty, HasMeta bool
		Phases          [][][]float64 // phase id → sensor id → samples; an untouched phase is empty
		Cells           [][]snapCell  // phase id → sensor id → cube cell; only phases holding samples have any
	}
	snapMachine struct {
		Jobs     []snapJob           // ascending Job
		Leaves   []stats.OnlineState // phase id*len(Topo.Sensors) + sensor id
		Trackers []stats.EWMAState   // sensor id
	}
	snapState struct {
		Topo       wire.Topology
		JobInterns []string // job id → name

		Machines []snapMachine // by machine id
		Env      [][]float64   // environment sensor id → samples

		DataRev, Accepted, Received, Rejected, Shed uint64

		Alerts   []wire.Alert // oldest first
		AlertSeq uint64       // plant-wide alert sequence high-water mark

		ShardSeqs   []uint64
		SnapshotRev uint64
	}
)

func cmpJob(a, b snapJob) int { return cmp.Compare(a.Job, b.Job) }

// snapFormat leads every snapshot payload; the gob of snapState follows.
// A payload with any other first byte — format 1 held leaves, trackers
// and cube cells in keyed lists snapState has no field for; the untagged
// gob before it starts with gob's own length prefix — is refused with
// errSnapFormat instead of decoding into a plant that silently lacks
// them. Earlier format-2 writers also stored per-machine and
// environment revision counters; gob skips stream fields snapState
// lacks, and nothing read them but the report path, so those payloads
// load unchanged.
const snapFormat = 2

var (
	errSnapFormat = errors.New("unsupported snapshot format")
	// errJobVector marks the validateState failures handleJobs would
	// have answered with the vector_dims code.
	errJobVector = errors.New("job vector")
)

func encodeState(st *snapState) ([]byte, error) {
	buf := bytes.NewBuffer([]byte{snapFormat})
	if err := gob.NewEncoder(buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeState decodes a snapshot payload and vets it, so a state it
// returns is safe to applyState — whether it came from the data dir, a
// restore body or a cluster peer.
func decodeState(p []byte) (*snapState, error) {
	if len(p) == 0 || p[0] != snapFormat {
		return nil, fmt.Errorf("%w: want format %d; snapshots and backups of earlier versions cannot be read, re-ingest the plant", errSnapFormat, snapFormat)
	}
	var st snapState
	if err := gob.NewDecoder(bytes.NewReader(p[1:])).Decode(&st); err != nil {
		return nil, err
	}
	// Every snapshot this server writes holds a registered topology:
	// decoded from JSON, defaults filled in. A hand-made one gets the
	// same treatment — through the encoding meta.json stores, which
	// rewrites a name that is not valid UTF-8 — so the ids below are
	// vetted against the topology the plant is rebuilt and reloaded with.
	var topo Topology
	if err := json.Unmarshal(topoJSON(st.Topo), &topo); err != nil {
		return nil, err
	}
	st.Topo = topoWithDefaults(topo)
	if err := validateState(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func strictlyAscending[T any](s []T, cmp func(a, b T) int) bool {
	for i := 1; i < len(s); i++ {
		if cmp(s[i-1], s[i]) >= 0 {
			return false
		}
	}
	return true
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// validateState holds a decoded snapshot to what the live paths
// guarantee of the state they build, so applyState can index with its
// positions without a failure branch: a valid topology; unique,
// well-formed job names; every id inside its dictionary and every
// id-indexed slice no longer than it; job vectors within the topology
// dims and finite (the handleJobs gate — padVector would silently
// truncate an oversized one, a non-finite one would poison the level-2
// detectors); cube cells only beside samples, with a count that is not
// negative and finite aggregates (the olap.IntCell invariant); jobs
// strictly ascending, which is also what makes them unique.
func validateState(st *snapState) error {
	topo := st.Topo
	if err := topo.Validate(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	var machines []string
	for _, l := range topo.Lines {
		machines = append(machines, l.Machines...)
	}
	nMachines, nJobs, nPhases, nSensors := len(machines), len(st.JobInterns), len(topo.Phases), len(topo.Sensors)

	for _, name := range st.JobInterns {
		switch err := checkJobName(name); {
		case err == errMissingJob:
			return fmt.Errorf("snapshot: empty job id")
		case err != nil:
			return fmt.Errorf("snapshot: %w", err)
		}
	}
	// applyState rebuilds the job table from this list; a repeated name
	// would keep its first id and shift every id after it.
	if intern.NewDyn(st.JobInterns).Len() != nJobs {
		return fmt.Errorf("snapshot: a job name is interned twice")
	}

	if len(st.Machines) > nMachines || len(st.Env) > len(topo.EnvSensors) {
		return fmt.Errorf("snapshot: %d machine stores and %d environment series for a topology of %d and %d",
			len(st.Machines), len(st.Env), nMachines, len(topo.EnvSensors))
	}
	for mid, sm := range st.Machines {
		if len(sm.Leaves) > nPhases*nSensors || len(sm.Trackers) > nSensors {
			return fmt.Errorf("snapshot: machine %s: %d roll-up leaves and %d trackers, topology has room for %d and %d",
				machines[mid], len(sm.Leaves), len(sm.Trackers), nPhases*nSensors, nSensors)
		}
		if !strictlyAscending(sm.Jobs, cmpJob) {
			return fmt.Errorf("snapshot: machine %s: jobs not in ascending id order", machines[mid])
		}
		for _, sj := range sm.Jobs {
			if sj.Job < 0 || int(sj.Job) >= nJobs {
				return fmt.Errorf("snapshot: machine %s: job id %d outside the job table (%d)", machines[mid], sj.Job, nJobs)
			}
			job := st.JobInterns[sj.Job]
			if len(sj.Setup) > topo.SetupDims || len(sj.CAQ) > topo.CAQDims {
				return fmt.Errorf("snapshot: machine %s job %s: %w: setup/caq longer than the topology dims (%d/%d)",
					machines[mid], job, errJobVector, topo.SetupDims, topo.CAQDims)
			}
			if !finite(sj.Setup...) || !finite(sj.CAQ...) {
				return fmt.Errorf("snapshot: machine %s job %s: %w: non-finite setup/caq value", machines[mid], job, errJobVector)
			}
			if len(sj.Phases) > nPhases {
				return fmt.Errorf("snapshot: machine %s job %s: %d phases, topology has %d", machines[mid], job, len(sj.Phases), nPhases)
			}
			for _, series := range sj.Phases {
				if len(series) > nSensors {
					return fmt.Errorf("snapshot: machine %s job %s: %d sensor series, topology has %d", machines[mid], job, len(series), nSensors)
				}
			}
			if len(sj.Cells) > len(sj.Phases) {
				return fmt.Errorf("snapshot: machine %s job %s: cube cells for %d phases, samples for %d", machines[mid], job, len(sj.Cells), len(sj.Phases))
			}
			for ph, cells := range sj.Cells {
				if len(cells) > len(sj.Phases[ph]) {
					return fmt.Errorf("snapshot: machine %s job %s phase %s: %d cube cells beside %d sensor series",
						machines[mid], job, topo.Phases[ph], len(cells), len(sj.Phases[ph]))
				}
				for _, c := range cells {
					if c.Count < 0 || !finite(c.Sum, c.Min, c.Max) {
						return fmt.Errorf("snapshot: machine %s job %s phase %s: negative or non-finite cube cell", machines[mid], job, topo.Phases[ph])
					}
				}
			}
		}
	}

	if len(st.Alerts) > alertRingCap {
		return fmt.Errorf("snapshot: %d alerts, the ring holds %d", len(st.Alerts), alertRingCap)
	}
	for _, a := range st.Alerts {
		if a.Seq > st.AlertSeq {
			return fmt.Errorf("snapshot: alert sequence %d above the high-water mark %d", a.Seq, st.AlertSeq)
		}
	}
	return nil
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

// topoJSON is the body of meta.json. Encoding a Topology — strings and
// ints — cannot fail.
func topoJSON(topo Topology) []byte {
	buf, _ := json.MarshalIndent(topo, "", "  ")
	return append(buf, '\n')
}

// persistMeta writes the registered topology so a restart can rebuild
// the plant before any snapshot exists.
func persistMeta(dir string, topo Topology) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, plantMetaName), topoJSON(topo), 0o644)
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
	body, err := json.Marshal(metas)
	if err != nil {
		return err
	}
	_, err = ps.dur.logs[0].Append(append([]byte{walJobsTag}, body...))
	return err
}

// captureState stops every shard worker at a batch boundary and deep-
// copies the full serving state — the consistent cut that makes
// snapshot + WAL-tail replay reproduce exactly what an uninterrupted
// run holds. Two captures of the same state are equal, element for
// element: everything is copied out in position order except the jobs,
// the one map, which are sorted by id.
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
		Topo:       ps.topo,
		JobInterns: ps.in.jobs.Names(),
		Machines:   make([]snapMachine, len(ps.mstores)),
		DataRev:    ps.dataRev.Load(),
		Accepted:   ps.accepted.Load(),
		Received:   ps.received.Load(),
		Rejected:   ps.rejected.Load(),
		Shed:       ps.shed.Load(),
		ShardSeqs:  make([]uint64, len(ps.shards)),
	}
	for i, sh := range ps.shards {
		st.ShardSeqs[i] = sh.foldedSeq.Load()
	}
	for mid, ms := range ps.mstores {
		ms.mu.Lock()
		sm := snapMachine{
			Jobs:   make([]snapJob, 0, len(ms.jobsByID)),
			Leaves: make([]stats.OnlineState, len(ms.leaves)), Trackers: make([]stats.EWMAState, len(ms.trackers)),
		}
		for i := range ms.leaves {
			sm.Leaves[i] = ms.leaves[i].State()
		}
		for i := range ms.trackers {
			sm.Trackers[i] = ms.trackers[i].State()
		}
		for jid, js := range ms.jobsByID {
			sj := snapJob{
				Job: jid, Setup: slices.Clone(js.setup), CAQ: slices.Clone(js.caq),
				Faulty: js.faulty, HasMeta: js.hasMeta,
				Phases: make([][][]float64, len(js.phases)), Cells: make([][]snapCell, len(js.phases)),
			}
			for ph, g := range js.phases {
				if g == nil {
					continue
				}
				sj.Phases[ph] = flatSeries(&ms.slab, g.cols)
				sj.Cells[ph] = make([]snapCell, len(g.cells))
				for s, c := range g.cells {
					sj.Cells[ph][s] = snapCell{Count: c.Count, Sum: c.Sum, Min: c.Min, Max: c.Max}
				}
			}
			sm.Jobs = append(sm.Jobs, sj)
		}
		ms.mu.Unlock()
		slices.SortFunc(sm.Jobs, cmpJob)
		st.Machines[mid] = sm
	}
	ps.env.mu.Lock()
	st.Env = flatSeries(&ps.env.slab, ps.env.cols)
	ps.env.mu.Unlock()
	st.Alerts = ps.recentAlerts(0)
	ps.alertMu.Lock()
	st.AlertSeq = ps.alertSeq
	ps.alertMu.Unlock()
	return st
}

// applyState loads a state decodeState vetted (or captureState just
// produced) into a quiescent plantState built from the same topology:
// shards made, workers not yet spawned. Positions index the stores
// directly, and nothing is routed by machine — no shard holds data, so
// a restart with a different shard count loads the same way.
func (ps *plantState) applyState(st *snapState) {
	ps.in.jobs = intern.NewDyn(st.JobInterns)
	for mid, sm := range st.Machines {
		ms := ps.mstores[mid]
		for i, lf := range sm.Leaves {
			ms.leaves[i] = stats.OnlineFromState(lf)
		}
		for i, tk := range sm.Trackers {
			ms.trackers[i] = *stats.EWMAFromState(tk)
		}
		for _, sj := range sm.Jobs {
			js := ms.job(sj.Job)
			js.setup, js.caq = slices.Clone(sj.Setup), slices.Clone(sj.CAQ)
			js.faulty, js.hasMeta = sj.Faulty, sj.HasMeta
			for ph, series := range sj.Phases {
				if len(series) > 0 {
					g := ms.grid(js, int32(ph))
					for s, vals := range series {
						g.cols[s].load(&ms.slab, vals)
					}
				}
			}
			for ph, cells := range sj.Cells {
				for s, c := range cells {
					if c.Count > 0 { // validateState: a phase with cells has samples, so its grid exists
						js.phases[ph].cells[s] = olap.IntCell{
							Coord: olap.IntCoord{ms.line, ms.id, sj.Job, int32(ph), int32(s)},
							Count: c.Count, Sum: c.Sum, Min: c.Min, Max: c.Max,
						}
						ms.nCells++
					}
				}
			}
		}
	}
	for id, vals := range st.Env {
		ps.env.cols[id].load(&ps.env.slab, vals)
	}
	ps.dataRev.Store(st.DataRev)
	ps.accepted.Store(st.Accepted)
	ps.received.Store(st.Received)
	ps.rejected.Store(st.Rejected)
	ps.shed.Store(st.Shed)
	ps.alerts = slices.Clone(st.Alerts)
	ps.alertHead = 0
	ps.alertSeq = st.AlertSeq
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
		// Snapshot ids index the plant loadPlant built from meta.json;
		// both files were written from one topology, so they encode alike.
		if !bytes.Equal(topoJSON(st.Topo), topoJSON(ps.topo)) {
			return fmt.Errorf("%s was written for a different topology than %s", wal.SnapshotName, plantMetaName)
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

// replayPayload folds one WAL entry through the regular ingest path: a
// record frame re-resolves its dictionaries against the current intern
// tables, job metadata is re-applied.
func (ps *plantState) replayPayload(p []byte) error {
	f, metas, err := decodeWalEntry(p)
	if err != nil {
		return err
	}
	if f != nil {
		var sc resolveScratch
		refs, rejected, _ := ps.resolveFrame(nil, f, &sc)
		ps.foldResolved(refs, rejected)
	}
	ps.applyJobMetas(metas)
	return nil
}

// foldResolved folds re-resolved replay refs. A record the current
// topology no longer resolves — the WAL was written under a different
// registration — counts as rejected, the same signal the live path
// gives its client.
func (ps *plantState) foldResolved(refs []recordRef, rejected int) {
	if rejected > 0 {
		ps.rejected.Add(uint64(rejected))
	}
	ps.foldRefs(refs)
}

// applyJobMetas applies already-validated job metadata, advancing the
// data revision once if anything changed — shared by the HTTP handler
// and WAL replay.
func (ps *plantState) applyJobMetas(metas []JobMeta) {
	changed := false
	for _, m := range metas {
		id, ok := ps.in.machines.ID(m.Machine)
		if !ok {
			continue // only a replayed entry can name one: handleJobs filters
		}
		if ps.mstores[id].setMeta(ps.in.jobs.Intern(m.Job), m) {
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

var (
	errShuttingDown = errors.New("server is shutting down")
	errPlantExists  = errors.New("already registered")
)

// installState registers a plant rebuilt from a state decodeState
// returned — the one path behind POST /restore and standby seeding.
// With a data dir the state is also saved as the plant's baseline
// snapshot at rev before the plant becomes visible: the fresh WALs are
// empty, so a restart has nothing else to recover from.
func (s *Server) installState(st *snapState, rev uint64) error {
	id := st.Topo.ID
	st.ShardSeqs = nil // positions in the source server's WALs, not the fresh local ones
	st.SnapshotRev = rev
	ps := newPlantState(st.Topo)
	ps.makeShards(s.opts.Shards, s.opts.QueueDepth)
	ps.alertThreshold = s.opts.AlertThreshold
	ps.publish = s.hub.Publish
	ps.applyState(st)
	// Encoded before the registry lock so the gob pass doesn't stall
	// unrelated requests.
	var baseline []byte
	if s.opts.DataDir != "" {
		var err error
		if baseline, err = encodeState(st); err != nil {
			return fmt.Errorf("encoding snapshot: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return errShuttingDown
	}
	if _, exists := s.plants[id]; exists {
		return fmt.Errorf("plant %q %w", id, errPlantExists)
	}
	if s.opts.DataDir != "" {
		//hod:allow(lockorder) install atomicity: the exists-check, plant-dir creation and baseline snapshot must be one critical section or a concurrent register of the same ID could interleave
		cleanup, err := s.persistNewPlant(ps, st.Topo)
		if err != nil {
			return fmt.Errorf("persisting plant: %w", err)
		}
		//hod:allow(lockorder) same install critical section: the baseline must be durable before the plant becomes visible
		if err := wal.SaveSnapshot(ps.dur.dir, rev, baseline); err != nil {
			cleanup()
			return fmt.Errorf("persisting snapshot: %w", err)
		}
		ps.dur.snapRev.Store(rev)
	}
	ps.spawn()
	s.plants[id] = ps
	return nil
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
