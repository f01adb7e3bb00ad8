package server

import (
	"fmt"
	"math"

	"repro/internal/intern"
	"repro/pkg/hod/wire"
)

// The ingest hot path runs on interned identifiers: every topology
// name (line, machine, phase, sensor, environment sensor) gets an
// int32 id at registration — its position in the topology — and job
// ids, the one namespace that arrives with the data, are interned on
// first sight. A validated record travels from admission through the
// shard queues, the idempotent store, the roll-up leaves and the OLAP
// cube as a recordRef of ids; strings are resolved exactly once per
// batch at admission and translated back only to answer a query or
// raise an alert. Job-id assignment may differ between runs (shards
// intern concurrently). That is safe because an id never travels
// without the dictionary that defines it: responses carry names, a WAL
// frame carries its own dictionaries, and a snapshot carries the
// topology and the job table its ids index.

// recordRef is one admitted record in interned form. machine == -1
// marks an environment record, whose sensor indexes the environment
// namespace; everything else indexes the registration tables.
type recordRef struct {
	machine, job, phase, sensor int32
	t                           int32
	value                       float64
}

// plantInterns is the per-plant identifier universe.
type plantInterns struct {
	lines       *intern.Table
	machines    *intern.Table
	machineLine []int32 // machine id → line id
	phases      *intern.Table
	sensors     *intern.Table
	envSensors  *intern.Table
	jobs        *intern.DynTable

	// walSensors is the shared sensor dictionary of durable frames:
	// the machine-sensor namespace followed by the environment one, so
	// an environment ref's sensor encodes as len(sensors)+id.
	walSensors []string
}

func newPlantInterns(topo Topology) *plantInterns {
	var machines []string
	var lineOf []int32
	lines := make([]string, 0, len(topo.Lines))
	for li, l := range topo.Lines {
		lines = append(lines, l.ID)
		for _, m := range l.Machines {
			machines = append(machines, m)
			lineOf = append(lineOf, int32(li))
		}
	}
	in := &plantInterns{
		lines:       intern.New(lines),
		machines:    intern.New(machines),
		machineLine: lineOf,
		phases:      intern.New(topo.Phases),
		sensors:     intern.New(topo.Sensors),
		envSensors:  intern.New(topo.EnvSensors),
		jobs:        intern.NewDyn(nil),
	}
	in.walSensors = append(append([]string(nil), topo.Sensors...), topo.EnvSensors...)
	return in
}

// resolveRecord vets one decoded record against the topology and
// interns it — the checks (and their messages) are the admission
// contract the text codecs had before interning existed.
func (ps *plantState) resolveRecord(rec Record) (recordRef, error) {
	if rec.T < 0 || rec.T >= maxSampleIndex {
		return recordRef{}, fmt.Errorf("t %d out of [0, %d)", rec.T, maxSampleIndex)
	}
	if math.IsNaN(rec.Value) || math.IsInf(rec.Value, 0) {
		return recordRef{}, fmt.Errorf("non-finite value")
	}
	if rec.Env {
		id, ok := ps.in.envSensors.ID(rec.Sensor)
		if !ok {
			return recordRef{}, fmt.Errorf("unknown environment sensor %q", rec.Sensor)
		}
		return recordRef{machine: -1, job: -1, phase: -1, sensor: id, t: int32(rec.T), value: rec.Value}, nil
	}
	mid, ok := ps.in.machines.ID(rec.Machine)
	if !ok {
		return recordRef{}, fmt.Errorf("unregistered machine %q", rec.Machine)
	}
	if rec.Job == "" {
		return recordRef{}, fmt.Errorf("missing job id")
	}
	// Job ids are the one free-form cube coordinate (the others are
	// vetted at registration): a control character could collide with
	// the cube's reserved key separator and silently merge cells.
	if err := wire.ValidIdent("job", rec.Job); err != nil {
		return recordRef{}, err
	}
	pid, ok := ps.in.phases.ID(rec.Phase)
	if !ok {
		return recordRef{}, fmt.Errorf("unknown phase %q", rec.Phase)
	}
	sid, ok := ps.in.sensors.ID(rec.Sensor)
	if !ok {
		return recordRef{}, fmt.Errorf("unknown sensor %q", rec.Sensor)
	}
	return recordRef{
		machine: mid, job: ps.in.jobs.Intern(rec.Job), phase: pid, sensor: sid,
		t: int32(rec.T), value: rec.Value,
	}, nil
}

// resolveRecords resolves a decoded batch onto dst, returning the
// rejected count and the first rejection reason.
func (ps *plantState) resolveRecords(dst []recordRef, recs []Record) ([]recordRef, int, string) {
	rejected := 0
	firstErr := ""
	for _, rec := range recs {
		ref, err := ps.resolveRecord(rec)
		if err != nil {
			rejected++
			if firstErr == "" {
				firstErr = err.Error()
			}
			continue
		}
		dst = append(dst, ref)
	}
	return dst, rejected, firstErr
}

// resolveFrame resolves one structurally valid binary frame onto dst.
// The frame-local dictionaries are resolved once; records referencing
// an unresolvable name (or failing the t/finiteness gates) are
// rejected per record with the same reasons the text path produces.
func (ps *plantState) resolveFrame(dst []recordRef, f *wire.Frame) ([]recordRef, int, string) {
	machineIDs := make([]int32, len(f.Machines))
	for i, name := range f.Machines {
		if id, ok := ps.in.machines.ID(name); ok {
			machineIDs[i] = id
		} else {
			machineIDs[i] = -1
		}
	}
	phaseIDs := make([]int32, len(f.Phases))
	for i, name := range f.Phases {
		if id, ok := ps.in.phases.ID(name); ok {
			phaseIDs[i] = id
		} else {
			phaseIDs[i] = -1
		}
	}
	sensorIDs := make([]int32, len(f.Sensors))
	envIDs := make([]int32, len(f.Sensors))
	for i, name := range f.Sensors {
		if id, ok := ps.in.sensors.ID(name); ok {
			sensorIDs[i] = id
		} else {
			sensorIDs[i] = -1
		}
		if id, ok := ps.in.envSensors.ID(name); ok {
			envIDs[i] = id
		} else {
			envIDs[i] = -1
		}
	}
	// Job names are vetted per dictionary entry but interned lazily:
	// an entry only referenced by otherwise-rejected records must not
	// grow the plant's job table.
	jobIDs := make([]int32, len(f.Jobs))
	jobErrs := make([]error, len(f.Jobs))
	for i, name := range f.Jobs {
		jobIDs[i] = -1
		switch {
		case name == "":
			jobErrs[i] = fmt.Errorf("missing job id")
		default:
			jobErrs[i] = wire.ValidIdent("job", name)
		}
	}

	rejected := 0
	firstErr := ""
	reject := func(err error) {
		rejected++
		if firstErr == "" {
			firstErr = err.Error()
		}
	}
	for i := 0; i < f.Len(); i++ {
		t := f.T[i]
		if t < 0 || t >= maxSampleIndex {
			reject(fmt.Errorf("t %d out of [0, %d)", t, maxSampleIndex))
			continue
		}
		v := f.Value[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			reject(fmt.Errorf("non-finite value"))
			continue
		}
		if f.Machine[i] < 0 {
			eid := envIDs[f.Sensor[i]]
			if eid < 0 {
				reject(fmt.Errorf("unknown environment sensor %q", f.Sensors[f.Sensor[i]]))
				continue
			}
			dst = append(dst, recordRef{machine: -1, job: -1, phase: -1, sensor: eid, t: t, value: v})
			continue
		}
		mid := machineIDs[f.Machine[i]]
		if mid < 0 {
			reject(fmt.Errorf("unregistered machine %q", f.Machines[f.Machine[i]]))
			continue
		}
		ji := f.Job[i]
		if jobErrs[ji] != nil {
			reject(jobErrs[ji])
			continue
		}
		pid := phaseIDs[f.Phase[i]]
		if pid < 0 {
			reject(fmt.Errorf("unknown phase %q", f.Phases[f.Phase[i]]))
			continue
		}
		sid := sensorIDs[f.Sensor[i]]
		if sid < 0 {
			reject(fmt.Errorf("unknown sensor %q", f.Sensors[f.Sensor[i]]))
			continue
		}
		if jobIDs[ji] < 0 {
			jobIDs[ji] = ps.in.jobs.Intern(f.Jobs[ji])
		}
		dst = append(dst, recordRef{machine: mid, job: jobIDs[ji], phase: pid, sensor: sid, t: t, value: v})
	}
	return dst, rejected, firstErr
}

// chunkRefs partitions resolved refs onto the shard pipelines using
// the per-machine precomputed shard index (environment refs ride on
// shard 0), preserving order within each machine.
func (ps *plantState) chunkRefs(refs []recordRef) [][]recordRef {
	chunks := make([][]recordRef, len(ps.shards))
	for _, ref := range refs {
		idx := int32(0)
		if ref.machine >= 0 {
			idx = ps.shardOf[ref.machine]
		}
		chunks[idx] = append(chunks[idx], ref)
	}
	return chunks
}
