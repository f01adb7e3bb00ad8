package server

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/intern"
	"repro/internal/olap"
	"repro/internal/plant"
	"repro/internal/stats"
	"repro/internal/timeseries"
	"repro/pkg/hod/wire"
)

// maxSampleIndex is the top of the t range a record may carry: samples
// per (job, phase, sensor). It bounds the length of a series, and so
// what a report allocates to flatten one; the memory a record pins
// does not grow with t, since a column only holds the blocks a sample
// landed in (column, blockLen).
const maxSampleIndex = 1 << 16

// The server compiles against the shared wire package — pkg/hod/wire
// is the single source of truth for the v1 protocol, shared with the
// typed client (pkg/hod.Client).
type (
	Record   = wire.Record
	JobMeta  = wire.JobMeta
	Topology = wire.Topology
	TopoLine = wire.TopoLine
)

// topoWithDefaults fills the omitted topology fields with the
// simulator's shapes, so a plantsim trace replays without ceremony.
func topoWithDefaults(t Topology) Topology {
	if len(t.Phases) == 0 {
		t.Phases = append([]string(nil), plant.PhaseNames...)
	}
	if len(t.Sensors) == 0 {
		t.Sensors = append([]string(nil), plant.SensorNames...)
	}
	if len(t.EnvSensors) == 0 {
		t.EnvSensors = []string{"room-temp", "humidity"}
	}
	if t.SetupDims <= 0 {
		t.SetupDims = wire.DefaultSetupDims
	}
	if t.CAQDims <= 0 {
		t.CAQDims = wire.DefaultCAQDims
	}
	return t
}

// cellGrid holds one (job, phase) of a machine, indexed by interned
// sensor id: the sample columns and, beside each, the OLAP cube cell
// aggregating that column's first-seen values — a cube coordinate
// (line, machine, job, phase, sensor) names exactly one column, so the
// cell needs no index of its own. A cell exists once its Count > 0.
// The columns' blocks live in the machine's slab: a grid costs its two
// headers plus, per 16-sample run that holds a sample, one 128-byte
// block and one directory entry, whatever t the samples carry.
type cellGrid struct {
	cols  []column       // sensor id → samples
	cells []olap.IntCell // sensor id → cube cell
}

type jobStore struct {
	setup, caq []float64
	faulty     bool
	hasMeta    bool
	phases     []*cellGrid // phase id → grid, nil until touched
}

// trackerAlpha is the smoothing factor of the per-sensor alert trackers.
const trackerAlpha = 0.05

// machineStore is the one home of everything the server folds for one
// machine, indexed by the interned ids records carry: the samples (jobs
// keyed by job id, the one namespace that grows), the roll-up leaves,
// the alert trackers and the cube cells. The topology is fixed at
// registration, so leaves and trackers are flat slices allocated there.
// Exactly one shard worker writes it (machines hash onto shards); mu
// exists for the report, query and snapshot reads.
type machineStore struct {
	mu                sync.Mutex
	line, id          int32 // the cube coordinate prefix of this machine's cells
	nPhases, nSensors int
	jobsByID          map[int32]*jobStore
	leaves            []stats.Online      // phase id*nSensors + sensor id → roll-up leaf
	trackers          []stats.EWMATracker // sensor id → alert tracker
	nCells            int                 // cube cells with Count > 0
	slab              slab                // the blocks of every job's columns
	dirHints          []dirHint           // phase id → directory hint of its columns
}

func newMachineStore(line, id int32, nPhases, nSensors int) *machineStore {
	ms := &machineStore{
		line: line, id: id, nPhases: nPhases, nSensors: nSensors,
		jobsByID: make(map[int32]*jobStore),
		leaves:   make([]stats.Online, nPhases*nSensors),
		trackers: make([]stats.EWMATracker, nSensors),
		dirHints: make([]dirHint, nPhases),
	}
	for i := range ms.trackers {
		ms.trackers[i] = *stats.NewEWMATracker(trackerAlpha)
	}
	return ms
}

// job returns (creating if needed) the store of one job. Callers must
// hold mu.
func (ms *machineStore) job(id int32) *jobStore {
	j, ok := ms.jobsByID[id]
	if !ok {
		j = &jobStore{phases: make([]*cellGrid, ms.nPhases)}
		ms.jobsByID[id] = j
	}
	return j
}

// grid returns (creating if needed) one phase of a job. Callers must
// hold mu.
func (ms *machineStore) grid(j *jobStore, phase int32) *cellGrid {
	g := j.phases[phase]
	if g == nil {
		g = &cellGrid{cols: make([]column, ms.nSensors), cells: make([]olap.IntCell, ms.nSensors)}
		j.phases[phase] = g
	}
	return g
}

// set stores the sample of one interned machine record and returns the
// grid it landed in. Callers must hold mu.
func (ms *machineStore) set(ref recordRef) (g *cellGrid, fresh, changed bool) {
	g = ms.grid(ms.job(ref.job), ref.phase)
	fresh, changed = g.cols[ref.sensor].set(&ms.slab, &ms.dirHints[ref.phase], int(ref.t), ref.value)
	return g, fresh, changed
}

// setMeta applies one job's metadata and reports whether anything
// changed. Re-applying identical metadata — a client retry or a WAL
// replay — must not advance the data revision, or a recovered server
// would drift from an uninterrupted one.
func (ms *machineStore) setMeta(id int32, m JobMeta) (changed bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	j := ms.job(id)
	if j.hasMeta && j.faulty == m.Faulty && slices.Equal(j.setup, m.Setup) && slices.Equal(j.caq, m.CAQ) {
		return false
	}
	j.setup = append([]float64(nil), m.Setup...)
	j.caq = append([]float64(nil), m.CAQ...)
	j.faulty = m.Faulty
	j.hasMeta = true
	return true
}

// envStore holds the shared shop-floor climate series, indexed by
// interned environment-sensor id.
type envStore struct {
	mu      sync.Mutex
	cols    []column // env sensor id → samples
	slab    slab
	dirHint dirHint
}

func newEnvStore(nSensors int) *envStore {
	return &envStore{cols: make([]column, nSensors)}
}

func (es *envStore) set(sensor int32, t int, v float64) (fresh, changed bool) {
	es.mu.Lock()
	defer es.mu.Unlock()
	return es.cols[sensor].set(&es.slab, &es.dirHint, t, v)
}

// assemblyStart anchors the assembled time axes. Detection never reads
// wall-clock positions — only sample indices — so a fixed epoch keeps
// snapshots reproducible.
var assemblyStart = time.Date(2026, 6, 1, 6, 0, 0, 0, time.UTC)

// buildMachine materialises one machine's plant view from its store:
// jobs in job-name order (names from the plant's job table), phases in
// schedule order, sensors in registered order, NaN holes linearly
// interpolated. Returns nil when the machine has no complete phase yet.
func buildMachine(topo Topology, lineID, machineID string, ms *machineStore, jobNames *intern.DynTable) (*plant.Machine, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if len(ms.jobsByID) == 0 {
		return nil, nil
	}
	type namedJob struct {
		name string
		js   *jobStore
	}
	jobs := make([]namedJob, 0, len(ms.jobsByID))
	for id, js := range ms.jobsByID {
		jobs = append(jobs, namedJob{jobNames.Name(id), js})
	}
	slices.SortFunc(jobs, func(a, b namedJob) int { return strings.Compare(a.name, b.name) })

	m := &plant.Machine{ID: machineID, Line: lineID}
	offset := 0
	for _, nj := range jobs {
		jobID, js := nj.name, nj.js
		job := &plant.Job{
			ID:      jobID,
			Machine: machineID,
			Line:    lineID,
			Start:   assemblyStart.Add(time.Duration(offset) * time.Second),
			Faulty:  js.faulty,
		}
		job.Setup = padVector(js.setup, topo.SetupDims)
		job.CAQ = padVector(js.caq, topo.CAQDims)
		for phID, phName := range topo.Phases {
			if phID >= len(js.phases) {
				break
			}
			g := js.phases[phID]
			if g == nil {
				continue
			}
			n := 0
			for _, c := range g.cols {
				n = max(n, int(c.n))
			}
			if n == 0 {
				continue
			}
			phStart := assemblyStart.Add(time.Duration(offset) * time.Second)
			dims := make([]*timeseries.Series, 0, len(topo.Sensors))
			for sID, sensor := range topo.Sensors {
				vals := make([]float64, n)
				g.cols[sID].fill(&ms.slab, vals)
				timeseries.Interpolate(vals)
				dims = append(dims, timeseries.New(sensor, phStart, time.Second, vals))
			}
			sensors, err := timeseries.NewMulti(dims...)
			if err != nil {
				return nil, fmt.Errorf("server: machine %s job %s phase %s: %w", machineID, jobID, phName, err)
			}
			job.Phases = append(job.Phases, &plant.Phase{Name: phName, Sensors: sensors})
			offset += n
		}
		if len(job.Phases) == 0 {
			continue
		}
		m.Jobs = append(m.Jobs, job)
	}
	if len(m.Jobs) == 0 {
		return nil, nil
	}
	return m, nil
}

// buildEnvironment materialises the climate multi-series; sensors with
// no data become empty series so the hierarchy's environment level
// degrades to "nothing detected" instead of erroring.
func (es *envStore) build(topo Topology) (*timeseries.MultiSeries, error) {
	es.mu.Lock()
	defer es.mu.Unlock()
	dims := make([]*timeseries.Series, 0, len(topo.EnvSensors))
	n := 0
	for _, c := range es.cols {
		n = max(n, int(c.n))
	}
	for id, s := range topo.EnvSensors {
		vals := make([]float64, n)
		es.cols[id].fill(&es.slab, vals)
		timeseries.Interpolate(vals)
		dims = append(dims, timeseries.New(s, assemblyStart, time.Second, vals))
	}
	return timeseries.NewMulti(dims...)
}

func padVector(v []float64, dims int) []float64 {
	out := make([]float64, dims)
	copy(out, v)
	return out
}
