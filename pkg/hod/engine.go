package hod

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/plant"
	"repro/pkg/hod/wire"
)

// SimConfig parameterises the built-in plant simulator (an additive-
// manufacturing plant with redundant sensors, injected process faults
// and lying thermistors). Zero values take the simulator defaults.
type SimConfig struct {
	Seed            int64
	Lines           int
	MachinesPerLine int
	JobsPerMachine  int
	PhaseSamples    int // samples per phase at level-1 resolution
	// FaultRate is the per-job probability of a process fault;
	// MeasurementErrorRate the per-job probability of a lying sensor.
	FaultRate            float64
	MeasurementErrorRate float64
}

// Plant is an opaque handle on a five-level production data set — the
// input of the embeddable engine.
type Plant struct {
	p *plant.Plant
}

// Simulate builds a simulated plant with ground-truth fault and
// measurement-error events.
func Simulate(cfg SimConfig) (*Plant, error) {
	p, err := plant.Simulate(plant.Config{
		Seed:                 cfg.Seed,
		Lines:                cfg.Lines,
		MachinesPerLine:      cfg.MachinesPerLine,
		JobsPerMachine:       cfg.JobsPerMachine,
		PhaseSamples:         cfg.PhaseSamples,
		FaultRate:            cfg.FaultRate,
		MeasurementErrorRate: cfg.MeasurementErrorRate,
	})
	if err != nil {
		return nil, err
	}
	return &Plant{p: p}, nil
}

// Machines lists the plant's machine ids in topology order.
func (p *Plant) Machines() []string {
	out := make([]string, 0, 8)
	for _, l := range p.p.Lines {
		for _, m := range l.Machines {
			out = append(out, m.ID)
		}
	}
	return out
}

// Topology renders the plant's line/machine layout as the wire
// topology a server registration expects.
func (p *Plant) Topology(id string) wire.Topology {
	topo := wire.Topology{ID: id}
	for _, l := range p.p.Lines {
		tl := wire.TopoLine{ID: l.ID}
		for _, m := range l.Machines {
			tl.Machines = append(tl.Machines, m.ID)
		}
		topo.Lines = append(topo.Lines, tl)
	}
	return topo
}

// Records flattens every machine sensor sample of the plant into wire
// records, in topology order — ready for Client.Ingest.
func (p *Plant) Records() []wire.Record {
	var out []wire.Record
	for _, m := range p.p.Machines() {
		for _, job := range m.Jobs {
			for _, ph := range job.Phases {
				for _, dim := range ph.Sensors.Dims {
					for t, v := range dim.Values {
						out = append(out, wire.Record{
							Machine: m.ID, Job: job.ID, Phase: ph.Name,
							Sensor: dim.Name, T: t, Value: v,
						})
					}
				}
			}
		}
	}
	return out
}

// EnvRecords flattens the shop-floor climate series into wire records.
func (p *Plant) EnvRecords() []wire.Record {
	var out []wire.Record
	for _, dim := range p.p.Environment.Dims {
		for t, v := range dim.Values {
			out = append(out, wire.Record{Env: true, Sensor: dim.Name, T: t, Value: v})
		}
	}
	return out
}

// JobMetas extracts every job's level-2 vectors (setup + CAQ) as wire
// job metadata — ready for Client.Jobs.
func (p *Plant) JobMetas() []wire.JobMeta {
	var out []wire.JobMeta
	for _, m := range p.p.Machines() {
		for _, job := range m.Jobs {
			out = append(out, wire.JobMeta{
				Machine: m.ID, Job: job.ID,
				Setup: job.Setup, CAQ: job.CAQ, Faulty: job.Faulty,
			})
		}
	}
	return out
}

// SimEvent is one injected ground-truth anomaly of a simulated plant.
type SimEvent struct {
	Kind    string // "process-fault" or "measurement-error"
	Machine string
	Job     string
	Phase   string
	Sensor  string // affected sensor for measurement errors, "" for faults
}

// Events lists the simulator's injected ground truth, for evaluating
// detection output against what actually happened.
func (p *Plant) Events() []SimEvent {
	out := make([]SimEvent, 0, len(p.p.Events))
	for _, e := range p.p.Events {
		out = append(out, SimEvent{
			Kind: e.Kind.String(), Machine: e.Machine,
			Job: e.Job, Phase: e.Phase, Sensor: e.Sensor,
		})
	}
	return out
}

// Cache shares the plant-wide score computations (environment tracker,
// production cube, sibling line scores) across several engines bound
// to the same plant. All methods of an engine using it stay safe for
// concurrent use.
type Cache struct {
	p *Plant
	c *core.PlantCache
}

// NewCache builds a shareable cache for the given plant.
func NewCache(p *Plant) *Cache {
	return &Cache{p: p, c: core.NewPlantCache(p.p)}
}

// Thresholds carries the per-level detection thresholds of Algorithm 1
// in robust-z-like units. Zero values take the engine defaults.
type Thresholds struct {
	Phase       float64
	Job         float64
	Environment float64
	Line        float64
	Production  float64
}

// Engine embeds Algorithm 1: hierarchical outlier detection over one
// plant, per machine or fleet-wide. Build with NewEngine; an Engine is
// safe for concurrent use (detection runs for the same machine are
// serialized, distinct machines proceed in parallel).
type Engine struct {
	plant       *Plant
	cache       *core.PlantCache
	workers     int
	naivePhase  bool
	softSupport bool
	maxOutliers int
	thresholds  Thresholds
	allowed     map[string]bool // technique restriction; nil = all

	cacheOwner *Plant // plant the WithCache cache was built for

	mu    sync.Mutex
	hier  map[string]*core.Hierarchy
	runMu map[string]*sync.Mutex // per machine: one Algorithm 1 run at a time
}

// Option tunes an Engine at construction time.
type Option func(*Engine)

// WithWorkers bounds the parallel fan-out of DetectFleet across
// machines (0 = GOMAXPROCS).
func WithWorkers(n int) Option { return func(e *Engine) { e.workers = n } }

// WithNaivePhase switches the phase-level detector from the job-cycle
// profile to a plain global robust z — the "wrong algorithm for the
// level" ablation showing why Algorithm 1's ChooseAlgorithm step
// matters.
func WithNaivePhase() Option { return func(e *Engine) { e.naivePhase = true } }

// WithSoftSensorSupport enables virtual redundancy: sensors without a
// physical twin get their support from a soft sensor predicting them
// out of the peer channels.
func WithSoftSensorSupport() Option { return func(e *Engine) { e.softSupport = true } }

// WithMaxOutliers bounds each machine's reported outlier list
// (default 64).
func WithMaxOutliers(n int) Option { return func(e *Engine) { e.maxOutliers = n } }

// WithThresholds overrides the per-level detection thresholds.
func WithThresholds(t Thresholds) Option { return func(e *Engine) { e.thresholds = t } }

// WithTechniques restricts the registry techniques reachable through
// Engine.Technique to the named set. NewEngine fails on unknown names.
func WithTechniques(names ...string) Option {
	return func(e *Engine) {
		e.allowed = make(map[string]bool, len(names))
		for _, n := range names {
			e.allowed[n] = true
		}
	}
}

// WithCache shares a plant-wide computation cache with other engines
// over the same plant. NewEngine fails when the cache was built for a
// different plant.
func WithCache(c *Cache) Option {
	return func(e *Engine) { e.cache = c.c; e.cacheOwner = c.p }
}

// NewEngine binds an engine to a plant. The zero option set runs the
// paper's Algorithm 1 with default thresholds on all machines.
func NewEngine(p *Plant, opts ...Option) (*Engine, error) {
	if p == nil || p.p == nil {
		return nil, fmt.Errorf("hod: NewEngine needs a plant")
	}
	e := &Engine{
		plant: p,
		hier:  map[string]*core.Hierarchy{},
		runMu: map[string]*sync.Mutex{},
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.cacheOwner != nil && e.cacheOwner != p {
		return nil, fmt.Errorf("hod: WithCache cache was built for a different plant")
	}
	if e.cache == nil {
		e.cache = core.NewPlantCache(p.p)
	}
	for name := range e.allowed {
		if _, err := lookupTechnique(name); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Machines lists the machine ids the engine can detect on.
func (e *Engine) Machines() []string { return e.plant.Machines() }

func (e *Engine) coreOptions() core.Options {
	return core.Options{
		PhaseThreshold:      e.thresholds.Phase,
		JobThreshold:        e.thresholds.Job,
		EnvThreshold:        e.thresholds.Environment,
		LineThreshold:       e.thresholds.Line,
		ProductionThreshold: e.thresholds.Production,
		MaxOutliers:         e.maxOutliers,
		SoftSensorSupport:   e.softSupport,
	}
}

// hierarchy returns (building once) the machine's hierarchy plus its
// per-machine run lock.
func (e *Engine) hierarchy(machineID string) (*core.Hierarchy, *sync.Mutex, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if h, ok := e.hier[machineID]; ok {
		return h, e.runMu[machineID], nil
	}
	if _, err := e.plant.p.MachineByID(machineID); err != nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownMachine, machineID)
	}
	h, err := core.NewHierarchyWithCache(e.plant.p, machineID, e.cache)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: machine %q: %v", ErrNoData, machineID, err)
	}
	h.NaivePhase = e.naivePhase
	runMu := &sync.Mutex{}
	e.hier[machineID] = h
	e.runMu[machineID] = runMu
	return h, runMu, nil
}

// detectCore runs Algorithm 1 for one machine and returns the raw core
// report. The per-machine run lock serializes runs on the same
// hierarchy (its lazy score memos are not safe to fill twice
// concurrently); it is an operation lock, held across the run's own
// fan-out.
func (e *Engine) detectCore(ctx context.Context, machineID string, level Level) (*core.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !level.Valid() {
		return nil, fmt.Errorf("%w: %d", ErrInvalidLevel, int(level))
	}
	h, runMu, err := e.hierarchy(machineID)
	if err != nil {
		return nil, err
	}
	runMu.Lock()
	defer runMu.Unlock()
	return core.FindHierarchicalOutliers(h, core.Level(level), e.coreOptions())
}

// Detect runs hierarchical outlier detection for one machine starting
// at the given level, returning the ranked findings and any
// measurement-error warnings.
func (e *Engine) Detect(ctx context.Context, machineID string, level Level) (*Report, error) {
	rep, err := e.detectCore(ctx, machineID, level)
	if err != nil {
		return nil, err
	}
	out := &Report{Machine: machineID, StartLevel: level}
	out.Outliers = make([]Outlier, len(rep.Outliers))
	for i, o := range rep.Outliers {
		out.Outliers[i] = o.Wire()
	}
	out.Warnings = make([]Warning, len(rep.Warnings))
	for i, w := range rep.Warnings {
		out.Warnings[i] = w.Wire()
	}
	return out, nil
}

// DetectFleet runs Detect on every machine of the plant (fanned out
// over the WithWorkers bound) and ranks the tagged findings fleet-wide
// with the paper's combined-importance order.
func (e *Engine) DetectFleet(ctx context.Context, level Level) (*FleetReport, error) {
	machines := e.Machines()
	reps, err := parallel.Map(len(machines), e.workers, func(i int) (*core.Report, error) {
		return e.detectCore(ctx, machines[i], level)
	})
	if err != nil {
		return nil, err
	}
	ranked, warnings := core.RankFleet(machines, reps)
	fr := &FleetReport{Level: level, Machines: machines, TotalOutliers: len(ranked), Warnings: warnings}
	fr.Outliers = make([]wire.FleetOutlier, len(ranked))
	for i, t := range ranked {
		fr.Outliers[i] = wire.FleetOutlier{Machine: t.Machine, Outlier: t.Outlier.Wire()}
	}
	return fr, nil
}
