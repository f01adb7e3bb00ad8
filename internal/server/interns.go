package server

import (
	"errors"
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
// raise an alert. Every batch reaches admission as a wire.Frame —
// binary bodies as decoded, text bodies built into one after decoding,
// WAL entries as logged — so resolveFrame is the one place the
// admission contract is written. Job-id assignment may differ between
// runs (shards intern concurrently). That is safe because an id never
// travels without the dictionary that defines it: responses carry
// names, a WAL frame carries its own dictionaries, and a snapshot
// carries the topology and the job table its ids index.

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

// errMissingJob is the job-name rule's verdict on an empty name.
var errMissingJob = errors.New("missing job id")

// checkJobName is the job-name rule shared by record admission, job
// metadata and snapshot validation. Job ids are the one free-form cube
// coordinate (the others are vetted at registration): a control
// character could collide with the cube's reserved key separator and
// silently merge cells, and every name interned into the job table
// must reload from a snapshot.
func checkJobName(name string) error {
	if name == "" {
		return errMissingJob
	}
	return wire.ValidIdent("job", name)
}

// resolveScratch holds resolveFrame's per-frame dictionary
// translations: one plant id per frame-local entry, -1 where the plant
// does not know the name. The caller owns it and reuses it across
// frames, which is what keeps a warm resolution allocation-free.
type resolveScratch struct {
	machines, phases, sensors, envSensors, jobs []int32
	jobErrs                                     []error
}

// lookupAll translates one frame dictionary through an intern table
// onto dst.
func lookupAll(dst []int32, t *intern.Table, names []string) []int32 {
	dst = dst[:0]
	for _, name := range names {
		id, ok := t.ID(name)
		if !ok {
			id = -1
		}
		dst = append(dst, id)
	}
	return dst
}

// resolveFrame vets one structurally valid frame against the topology
// and interns it onto dst, returning the rejected count and the first
// rejection reason. It is the one admission check: binary bodies, text
// bodies (built into a frame after decoding), WAL replay and the
// standby tailer all resolve here. The frame-local dictionaries are
// resolved once; a record referencing an unresolvable name, or failing
// the t/finiteness gates, is rejected on its own.
func (ps *plantState) resolveFrame(dst []recordRef, f *wire.Frame, sc *resolveScratch) ([]recordRef, int, string) {
	sc.machines = lookupAll(sc.machines, ps.in.machines, f.Machines)
	sc.phases = lookupAll(sc.phases, ps.in.phases, f.Phases)
	sc.sensors = lookupAll(sc.sensors, ps.in.sensors, f.Sensors)
	sc.envSensors = lookupAll(sc.envSensors, ps.in.envSensors, f.Sensors)
	// Job names are vetted per dictionary entry but interned lazily:
	// an entry only referenced by otherwise-rejected records must not
	// grow the plant's job table.
	sc.jobs, sc.jobErrs = sc.jobs[:0], sc.jobErrs[:0]
	for _, name := range f.Jobs {
		sc.jobs = append(sc.jobs, -1)
		sc.jobErrs = append(sc.jobErrs, checkJobName(name))
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
			eid := sc.envSensors[f.Sensor[i]]
			if eid < 0 {
				reject(fmt.Errorf("unknown environment sensor %q", f.Sensors[f.Sensor[i]]))
				continue
			}
			dst = append(dst, recordRef{machine: -1, job: -1, phase: -1, sensor: eid, t: t, value: v})
			continue
		}
		mid := sc.machines[f.Machine[i]]
		if mid < 0 {
			reject(fmt.Errorf("unregistered machine %q", f.Machines[f.Machine[i]]))
			continue
		}
		ji := f.Job[i]
		if sc.jobErrs[ji] != nil {
			reject(sc.jobErrs[ji])
			continue
		}
		pid := sc.phases[f.Phase[i]]
		if pid < 0 {
			reject(fmt.Errorf("unknown phase %q", f.Phases[f.Phase[i]]))
			continue
		}
		sid := sc.sensors[f.Sensor[i]]
		if sid < 0 {
			reject(fmt.Errorf("unknown sensor %q", f.Sensors[f.Sensor[i]]))
			continue
		}
		if sc.jobs[ji] < 0 {
			sc.jobs[ji] = ps.in.jobs.Intern(f.Jobs[ji])
		}
		dst = append(dst, recordRef{machine: mid, job: sc.jobs[ji], phase: pid, sensor: sid, t: t, value: v})
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
