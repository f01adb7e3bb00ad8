package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"net/http"
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
// the stores (the sample blocks, roll-up leaves, trackers, cube
// cells), the alert ring, the counters — compacting WAL segments the
// snapshot covers. On startup the state is rebuilt by decoding the
// snapshot into a fresh plant and replaying the WAL tail through the
// regular fold path; the idempotent set-at-index store makes
// over-replay harmless, so the recovery boundary only has to be
// conservative. A backup is the same snapshot, and a restore or a
// standby seed decodes it the same way.
//
// Both durable forms are interned state next to the dictionaries that
// define its ids. A WAL frame carries its own (machines, phases,
// sensors, jobs) dictionaries and resolves against whatever plant
// replays it; a snapshot carries the topology and the job table, and
// one decoder builds the plant from that topology and reads the stores
// into it, position by position — it mirrors the store, machine by
// machine, block by block, and holds nothing per shard but the WAL
// positions.

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
// so a steady ingest load allocates per batch, not per byte.
// wal.Log.AppendBuffered copies the payload synchronously, which is
// what makes returning the buffer to the pool right after the append
// safe.
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

// A snapshot payload is one plant's serving state as the store holds
// it: the topology and the job table are its dictionaries, every other
// id is a position, and the topology fixes how many machines, leaves,
// trackers, phases, sensors and environment sensors follow, so no
// count of them is written. Little-endian; a str is a u32 length and
// its bytes, a flag a u8 0 or 1:
//
//	u8    format (3)
//	str   topology, the bytes meta.json holds (topoJSON)
//	u32   job count, then each name (str); a job id is its position
//	5×u64 data revision, accepted, received, rejected, shed
//	u32   shard count (0 in a backup), then each folded WAL position (u64)
//	per machine in topology order:
//	      per leaf (phase × sensor) u64 n, 4×f64 mean, m2, min, max
//	      per tracker (sensor) 3×f64 alpha, mean, variance, flag started
//	      u32 job count, per job by id: u32 id, flags faulty and has
//	      metadata, u32 count and f64s of setup, then of caq, then per
//	      phase a flag set when it holds samples, and then per sensor a
//	      column and its cube cell (u64 count and, unless 0, 3×f64 sum,
//	      min, max)
//	per environment sensor, a column
//	u64   alert sequence high-water mark; u32 alert count, per alert
//	      oldest first u64 seq, 3×str machine, phase, sensor, u64 t, 2×f64
//
// A column is u32 n (highest t + 1), u32 block count, then each block a
// sample landed in, ascending: u32 block number, 16×f64.
const snapFormat = 3

var (
	// errSnapFormat refuses formats 0–2 (gob payloads) by the first byte.
	errSnapFormat = errors.New("unsupported snapshot format")
	// errJobVector marks the refusals handleJobs answers with vector_dims.
	errJobVector = errors.New("job vector")
)

func appendU32(b []byte, v int) []byte       { return binary.LittleEndian.AppendUint32(b, uint32(v)) }
func appendStr(b []byte, s string) []byte    { return append(appendU32(b, len(s)), s...) }
func appendVec(b []byte, v []float64) []byte { return appendF64(appendU32(b, len(v)), v...) }

func appendU64(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func appendF64(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func bit(set bool) byte {
	if set {
		return 1
	}
	return 0
}

// encodeState captures the plant as a snapshot payload, every shard
// worker stopped at a batch boundary and each store locked while it is
// written: the consistent cut snapshot + WAL-tail replay needs. With
// positions it also writes, and returns, each shard's folded WAL
// position. The jobs, the one map, go by id, so equal states encode
// equally.
func (ps *plantState) encodeState(positions bool) (payload []byte, seqs []uint64) {
	for _, sh := range ps.shards {
		sh.foldMu.Lock()
		defer sh.foldMu.Unlock()
		if positions {
			seqs = append(seqs, sh.foldedSeq.Load())
		}
	}
	b := appendStr(append(make([]byte, 0, 1<<12), snapFormat), string(topoJSON(ps.topo)))
	jobs := ps.in.jobs.Names()
	b = appendU32(b, len(jobs))
	for _, name := range jobs {
		b = appendStr(b, name)
	}
	b = appendU64(b, ps.dataRev.Load(), ps.accepted.Load(), ps.received.Load(), ps.rejected.Load(), ps.shed.Load())
	b = appendU64(appendU32(b, len(seqs)), seqs...)
	for _, ms := range ps.mstores {
		b = ms.appendTo(b)
	}
	ps.env.mu.Lock()
	for i := range ps.env.cols {
		b = ps.env.cols[i].appendTo(b, &ps.env.slab)
	}
	ps.env.mu.Unlock()
	ps.alertMu.Lock()
	b = appendU64(b, ps.alertSeq)
	ps.alertMu.Unlock()
	alerts := ps.recentAlerts(0)
	b = appendU32(b, len(alerts))
	for _, a := range alerts {
		b = appendStr(appendStr(appendStr(appendU64(b, a.Seq), a.Machine), a.Phase), a.Sensor)
		b = appendF64(appendU64(b, uint64(a.T)), a.Value, a.Score)
	}
	return b, seqs
}

// appendTo writes one machine's section, growing b once for the blocks
// and cells that dominate it.
func (ms *machineStore) appendTo(b []byte) []byte {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	b = slices.Grow(b, int(ms.slab.n)*blockBytes+len(ms.jobsByID)*len(ms.leaves)*48)
	for i := range ms.leaves {
		st := ms.leaves[i].State()
		b = appendF64(appendU64(b, uint64(st.N)), st.Mean, st.M2, st.Min, st.Max)
	}
	for i := range ms.trackers {
		st := ms.trackers[i].State()
		b = append(appendF64(b, st.Alpha, st.Mean, st.Variance), bit(st.Started))
	}
	ids := slices.Sorted(maps.Keys(ms.jobsByID))
	b = appendU32(b, len(ids))
	for _, id := range ids {
		js := ms.jobsByID[id]
		b = append(appendU32(b, int(id)), bit(js.faulty), bit(js.hasMeta))
		b = appendVec(appendVec(b, js.setup), js.caq)
		for _, g := range js.phases {
			b = append(b, bit(g != nil))
			if g == nil {
				continue
			}
			for s, c := range g.cells {
				b = appendU64(g.cols[s].appendTo(b, &ms.slab), uint64(c.Count))
				if c.Count > 0 {
					b = appendF64(b, c.Sum, c.Min, c.Max)
				}
			}
		}
	}
	return b
}

// snapDecoder reads a snapshot payload front to back. A refusal panics
// with a snapError naming the byte, which decodeState recovers.
type snapDecoder struct {
	p    []byte
	size int // of the whole payload
}

type snapError struct{ error }

func (d *snapDecoder) fail(format string, args ...any) {
	panic(snapError{fmt.Errorf("snapshot byte %d: %w", d.size-len(d.p), fmt.Errorf(format, args...))})
}

func (d *snapDecoder) take(n int) []byte {
	if n > len(d.p) {
		d.fail("truncated: %d bytes wanted, %d left", n, len(d.p))
	}
	b := d.p[:n:n]
	d.p = d.p[n:]
	return b
}

func (d *snapDecoder) u32() uint32  { return binary.LittleEndian.Uint32(d.take(4)) }
func (d *snapDecoder) u64() uint64  { return binary.LittleEndian.Uint64(d.take(8)) }
func (d *snapDecoder) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *snapDecoder) str() string  { return string(d.take(int(d.u32()))) }

func (d *snapDecoder) flag() bool {
	if f := d.take(1)[0]; f <= 1 {
		return f == 1
	}
	d.fail("flag byte above 1")
	return false
}

// count reads a u32 count of items of at least size bytes each, refused
// above limit or beyond what the input left can hold.
func (d *snapDecoder) count(limit, size int, what string) int {
	if n := d.u32(); uint64(n) <= uint64(limit) && int(n) <= len(d.p)/size {
		return int(n)
	}
	d.fail("%s: more than %d, or than %d bytes left can hold", what, limit, len(d.p))
	return 0
}

// The least bytes a leaf, a tracker, a job before its phase flags and
// an alert take.
const minLeaf, minTracker, minJob, minAlert = 8 + 4*8, 3*8 + 1, 4 + 2 + 2*4, 8 + 3*4 + 3*8

// decodeState reads a snapshot payload into a fresh plant (no shards
// yet) and returns the WAL positions it holds. It is the validator: it
// checks each count against the topology and the input left before
// allocating by it, refuses ids outside their dictionary and what live
// paths never store (errJobVector for job vectors), and accepts only
// the bytes encodeState writes for what it read: the plant captures
// back to p.
func decodeState(p []byte) (ps *plantState, seqs []uint64, err error) {
	if len(p) == 0 || p[0] != snapFormat {
		return nil, nil, fmt.Errorf("%w: want format %d; snapshots and backups of earlier versions cannot be read, re-ingest the plant", errSnapFormat, snapFormat)
	}
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(snapError)
			if !ok {
				panic(r)
			}
			ps, seqs, err = nil, nil, se.error
		}
	}()
	d := &snapDecoder{p: p[1:], size: len(p)}
	// The topology is what registration stores — JSON decoded, defaults
	// filled in, valid — in the bytes meta.json holds.
	raw := d.take(int(d.u32()))
	var topo Topology
	if err := json.Unmarshal(raw, &topo); err != nil {
		d.fail("topology: %w", err)
	}
	topo = topoWithDefaults(topo)
	if err := topo.Validate(); err != nil {
		d.fail("%w", err)
	}
	if !bytes.Equal(raw, topoJSON(topo)) {
		d.fail("topology not in the form registration stores")
	}
	// Each machine holds a leaf per (phase, sensor) and a tracker per
	// sensor, each environment sensor a column: the input must hold
	// them before newPlantState allocates them.
	nm, np, ns := 0, len(topo.Phases), len(topo.Sensors)
	for _, l := range topo.Lines {
		nm += len(l.Machines)
	}
	if np > len(d.p)/minLeaf || ns > len(d.p)/(np*minLeaf) ||
		nm > len(d.p)/(np*ns*minLeaf+ns*minTracker+4) || len(topo.EnvSensors) > len(d.p)/8 {
		d.fail("a topology of %d machines × %d phases × %d sensors in %d bytes", nm, np, ns, len(d.p))
	}
	ps = newPlantState(topo)
	names := make([]string, d.count(math.MaxUint32, 4, "job names"))
	for i := range names {
		names[i] = d.str()
		if err := checkJobName(names[i]); err != nil {
			d.fail("job name %q: %w", names[i], err)
		}
	}
	if ps.in.jobs = intern.NewDyn(names); ps.in.jobs.Len() != len(names) {
		d.fail("a job name is interned twice")
	}
	for _, c := range []*atomic.Uint64{&ps.dataRev, &ps.accepted, &ps.received, &ps.rejected, &ps.shed} {
		c.Store(d.u64())
	}
	seqs = make([]uint64, d.count(math.MaxUint32, 8, "shard positions"))
	for i := range seqs {
		seqs[i] = d.u64()
	}
	for _, ms := range ps.mstores {
		d.machine(ms, len(names), &topo)
	}
	for i := range ps.env.cols {
		d.column(&ps.env.cols[i], &ps.env.slab, &ps.env.dirHint)
	}
	ps.alertSeq = d.u64()
	ps.alerts = make([]Alert, d.count(alertRingCap, minAlert, "alerts"))
	for i := range ps.alerts {
		a := &ps.alerts[i]
		a.Seq, a.Machine, a.Phase, a.Sensor = d.u64(), d.str(), d.str(), d.str()
		a.T, a.Value, a.Score = int(d.u64()), d.f64(), d.f64()
		if a.Seq > ps.alertSeq {
			d.fail("alert sequence %d above the high-water mark %d", a.Seq, ps.alertSeq)
		}
	}
	if len(d.p) > 0 {
		d.fail("%d trailing bytes", len(d.p))
	}
	return ps, seqs, nil
}

// machine reads one machine's section into its fresh store.
func (d *snapDecoder) machine(ms *machineStore, nJobs int, topo *Topology) {
	for i := range ms.leaves {
		ms.leaves[i] = stats.OnlineFromState(stats.OnlineState{N: int(d.u64()), Mean: d.f64(), M2: d.f64(), Min: d.f64(), Max: d.f64()})
	}
	for i := range ms.trackers {
		ms.trackers[i] = *stats.EWMAFromState(stats.EWMAState{Alpha: d.f64(), Mean: d.f64(), Variance: d.f64(), Started: d.flag()})
	}
	n := d.count(nJobs, minJob+ms.nPhases, "jobs")
	ms.jobsByID = make(map[int32]*jobStore, n)
	for prev := int64(-1); n > 0; n-- {
		id := int64(d.u32())
		if id <= prev || id >= int64(nJobs) {
			d.fail("job id %d outside the job table (%d) or not ascending", id, nJobs)
		}
		prev = id
		d.job(ms, int32(id), topo)
	}
}

// job reads one job into its machine's fresh store.
func (d *snapDecoder) job(ms *machineStore, id int32, topo *Topology) {
	js := ms.job(id)
	js.faulty, js.hasMeta = d.flag(), d.flag()
	js.setup, js.caq = d.vector(topo.SetupDims, "setup"), d.vector(topo.CAQDims, "caq")
	for ph := range int32(ms.nPhases) {
		if !d.flag() {
			continue
		}
		// The grid is made before its columns are read: it costs a
		// constant factor of a machine's leaves, which the input held.
		g := ms.grid(js, ph)
		for s := range g.cols {
			d.column(&g.cols[s], &ms.slab, &ms.dirHints[ph])
			if count := d.u64(); count > 0 {
				c := olap.IntCell{Coord: olap.IntCoord{ms.line, ms.id, id, ph, int32(s)}, Count: int(count), Sum: d.f64(), Min: d.f64(), Max: d.f64()}
				if count > math.MaxInt64 || g.cols[s].n == 0 || !finite(c.Sum, c.Min, c.Max) {
					d.fail("cube cell of count %d beside %d samples, or not finite", count, g.cols[s].n)
				}
				g.cells[s] = c
				ms.nCells++
			}
		}
	}
}

// vector reads a job vector of at most dims finite values.
func (d *snapDecoder) vector(dims int, what string) []float64 {
	n := int(d.u32())
	if n > dims {
		d.fail("%w: %s of %d values, the topology dims are %d", errJobVector, what, n, dims)
	}
	raw, v := d.take(8*n), make([]float64, n)
	for i := range v {
		if v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:])); !finite(v[i]) {
			d.fail("%w: non-finite %s value", errJobVector, what)
		}
	}
	return v
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
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
)

// restoreCap caps a backup body, on POST /restore and a standby seed
// alike. A backup carries a whole plant, not one ingest batch: the cap
// is never below 1 GiB, nor below MaxBodyBytes.
func (s *Server) restoreCap() int64 { return max(s.opts.MaxBodyBytes, 1<<30) }

// readBackup reads a backup body of at most limit bytes into a fresh
// plant, its snapshot revision and the WAL positions it holds: the one
// reader of POST /restore and a standby seed. A longer body is refused
// as too large, not cut short.
func readBackup(w http.ResponseWriter, body io.ReadCloser, limit int64) (rev uint64, ps *plantState, seqs []uint64, err error) {
	buf, err := io.ReadAll(http.MaxBytesReader(w, body, limit))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("reading backup: %w", err)
	}
	rev, payload, err := wal.DecodeSnapshot(buf)
	if err != nil {
		return 0, nil, nil, err
	}
	if ps, seqs, err = decodeState(payload); err != nil {
		return 0, nil, nil, fmt.Errorf("decoding backup state: %w", err)
	}
	return rev, ps, seqs, nil
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
	payload, seqs := ps.encodeState(true)
	rev := d.snapRev.Load() + 1
	if err := wal.SaveSnapshot(d.dir, rev, payload); err != nil {
		return err
	}
	d.snapRev.Store(rev)
	var firstErr error
	for i, l := range d.logs {
		if err := l.CompactThrough(seqs[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// recover replays the WAL tail after shardSeqs, the positions of the
// snapshot loadPlant decoded, through the regular fold path, then
// re-baselines: a fresh snapshot is written and fully covered segments
// are compacted away, so the next restart starts from a short tail.
func (ps *plantState) recover(shardSeqs []uint64) error {
	d := ps.dur
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
		ps.bumpRev()
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

// installState registers a plant decodeState returned — the one path
// behind POST /restore and standby seeding. With a data dir the plant
// is also saved as its baseline snapshot at rev, with its own (empty)
// WAL positions, before it becomes visible: a restart has nothing else
// to recover from.
func (s *Server) installState(ps *plantState, rev uint64) error {
	id := ps.topo.ID
	ps.makeShards(s.opts.Shards, s.opts.QueueDepth)
	ps.alertThreshold = s.opts.AlertThreshold
	ps.hub = s.hub
	// Encoded before the registry lock so the pass over the stores
	// doesn't stall unrelated requests.
	var baseline []byte
	if s.opts.DataDir != "" {
		baseline, _ = ps.encodeState(true)
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
		cleanup, err := s.persistNewPlant(ps, ps.topo)
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
	rev, payload, err := wal.LoadSnapshot(dir)
	if err != nil {
		return err
	}
	var ps *plantState
	var shardSeqs []uint64
	if payload == nil {
		ps = newPlantState(topo)
	} else {
		if ps, shardSeqs, err = decodeState(payload); err != nil {
			return err
		}
		// meta.json is written from the snapshot's topology: they encode alike.
		if !bytes.Equal(topoJSON(ps.topo), topoJSON(topo)) {
			return fmt.Errorf("%s was written for a different topology than %s", wal.SnapshotName, plantMetaName)
		}
	}
	ps.makeShards(s.opts.Shards, s.opts.QueueDepth)
	ps.alertThreshold = s.opts.AlertThreshold
	if err := ps.attachDur(dir, wopts); err != nil {
		return err
	}
	ps.dur.snapRev.Store(rev)
	if err := ps.recover(shardSeqs); err != nil {
		ps.dur.close()
		return err
	}
	// Attach the push hook only after recovery: WAL replay rebuilds
	// state through the same fold path, and replaying history must not
	// re-emit it to live subscribers.
	ps.hub = s.hub
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
