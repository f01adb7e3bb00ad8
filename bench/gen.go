package main

import (
	"fmt"
	"time"

	"repro/internal/plant"
	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

// sizing fixes the shape of every input. The plant shapes, batch sizes,
// arrival orders and rates are the benchmark's definition and do not
// change with -seconds; only how many plants are sent and how long the
// timed loops run do. tiny() exists for the unit tests alone.
type sizing struct {
	lines        int
	bulkMachines int // per line
	bulkJobs     int // per machine
	liveMachines int
	liveJobs     int
	livePreload  int // jobs per machine preloaded before the stream starts
	phaseSamples int

	bulkBatch int // records per bulk frame
	liveBatch int // records per streamed frame

	bulkPlants   int           // plants each bulk sender pair ingests once
	liveRate     float64       // streamed batches per second
	liveDuration time.Duration // length of the stream (capped by the plant)
	queryRate    float64       // analyst queries per second under ingest
	subscribers  int
	coldRounds   int           // live-mixed: batches held back to make the plant's reports cold again
	phaseB       time.Duration // closed-loop query mix on quiescent plants (query-static)
	phaseBShort  time.Duration // the same mix on the bulk workloads, for cube_p50_ms only
	replayBudget time.Duration // wall time one layer replay may take
	setups       int           // set-ups per run; setup_s is their median
}

// fullSizing is the benchmark proper. At the issue's nominal 20 s it is
// 16 bulk plants and the whole live plant; the committed run length of
// 10 s halves the plant counts and the stream, nothing else.
func fullSizing(seconds int) sizing {
	return sizing{
		lines: 2, bulkMachines: 3, bulkJobs: 96,
		liveMachines: 4, liveJobs: 156, livePreload: 62, phaseSamples: 80,
		bulkBatch: 2000, liveBatch: 400,
		bulkPlants:   max(2, seconds*8/10),
		liveRate:     150,
		liveDuration: time.Duration(seconds) * time.Second,
		queryRate:    20,
		subscribers:  16,
		coldRounds:   8,
		phaseB:       time.Duration(seconds) * time.Second,
		phaseBShort:  time.Duration(seconds) * time.Second * 3 / 10,
		replayBudget: 300 * time.Millisecond,
		setups:       3,
	}
}

func tinySizing() sizing {
	return sizing{
		lines: 2, bulkMachines: 2, bulkJobs: 3,
		liveMachines: 2, liveJobs: 8, livePreload: 3, phaseSamples: 8,
		bulkBatch: 200, liveBatch: 64,
		bulkPlants: 2, liveRate: 150, liveDuration: 300 * time.Millisecond,
		queryRate: 40, subscribers: 2, coldRounds: 2, phaseB: 150 * time.Millisecond, phaseBShort: 50 * time.Millisecond,
		replayBudget: 5 * time.Millisecond, setups: 1,
	}
}

// trace is one simulated plant flattened to wire records.
type trace struct {
	plant    *hod.Plant
	cfg      plant.Config
	machines []string
	jobs     int
	recs     []wire.Record // trace order: machine, job, phase, sensor, t; nil once released
	total    int           // len(recs), also after release
	simulate time.Duration
}

// release drops the flattened records once the bodies are encoded: two
// million pointer-laden structs in the heap would be marked by every GC
// cycle of the timed phase and billed to the server's CPU per record.
func (t *trace) release() { t.recs = nil }

// load brings the records back for the replays of the traced pass.
func (t *trace) load() {
	if t.recs == nil {
		t.recs = t.plant.Records()
	}
}

func (t *trace) topology(id string) wire.Topology { return t.plant.Topology(id) }

// simulateTrace builds a plant from the seed with the fault rates the
// paper reproduction's benchtab uses.
func simulateTrace(seed int64, lines, machinesPerLine, jobs, phaseSamples int) (*trace, error) {
	cfg := plant.Config{
		Seed: seed, Lines: lines, MachinesPerLine: machinesPerLine, JobsPerMachine: jobs,
		PhaseSamples: phaseSamples, FaultRate: 0.3, MeasurementErrorRate: 0.3,
	}
	start := time.Now()
	p, err := hod.Simulate(hod.SimConfig{
		Seed: cfg.Seed, Lines: cfg.Lines, MachinesPerLine: cfg.MachinesPerLine,
		JobsPerMachine: cfg.JobsPerMachine, PhaseSamples: cfg.PhaseSamples,
		FaultRate: cfg.FaultRate, MeasurementErrorRate: cfg.MeasurementErrorRate,
	})
	if err != nil {
		return nil, err
	}
	t := &trace{plant: p, cfg: cfg, machines: p.Machines(), jobs: jobs, simulate: time.Since(start)}
	t.recs = p.Records()
	t.total = len(t.recs)
	if want := len(t.machines) * jobs * t.perJob(); t.total != want {
		return nil, fmt.Errorf("bench: simulator produced %d records, the shape implies %d", t.total, want)
	}
	return t, nil
}

// perJob is the number of records one job of one machine contributes.
func (t *trace) perJob() int {
	return len(plant.PhaseNames) * len(plant.SensorNames) * t.cfg.PhaseSamples
}

// jobRange returns the trace-order records of jobs [from, to) of every
// machine, machine-major — what `hodctl replay` would send.
func (t *trace) jobRange(from, to int) []wire.Record {
	out := make([]wire.Record, 0, len(t.machines)*(to-from)*t.perJob())
	for m := range t.machines {
		base := m * t.jobs * t.perJob()
		out = append(out, t.recs[base+from*t.perJob():base+to*t.perJob()]...)
	}
	return out
}

// timeMajor returns up to limit records of jobs [from, jobs) in arrival
// order of a live plant: job, phase and sample index advance together
// on every machine, so each batch touches every machine and every
// shard. Trace order, by contrast, finishes one machine before the
// next starts, which flatters any per-shard "last cell" memo.
func (t *trace) timeMajor(from, limit int) []wire.Record {
	phases, sensors, samples := len(plant.PhaseNames), len(plant.SensorNames), t.cfg.PhaseSamples
	out := make([]wire.Record, 0, limit)
	for j := from; j < t.jobs; j++ {
		for ph := 0; ph < phases; ph++ {
			for ts := 0; ts < samples; ts++ {
				for m := range t.machines {
					for s := 0; s < sensors; s++ {
						if len(out) == limit {
							return out
						}
						out = append(out, t.recs[(((m*t.jobs+j)*phases+ph)*sensors+s)*samples+ts])
					}
				}
			}
		}
	}
	return out
}

// encodeBodies cuts recs into request bodies of `batch` records.
func encodeBodies(recs []wire.Record, batch int, ndjson bool) ([][]byte, error) {
	encode := wire.EncodeBinary
	if ndjson {
		encode = wire.EncodeNDJSON
	}
	bodies := make([][]byte, 0, (len(recs)+batch-1)/batch)
	for lo := 0; lo < len(recs); lo += batch {
		body, err := encode(recs[lo:min(lo+batch, len(recs))])
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}

// contentType is the ingest media type of a body set.
func contentType(ndjson bool) string {
	if ndjson {
		return "application/x-ndjson"
	}
	return wire.ContentTypeBinary
}
