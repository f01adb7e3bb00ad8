package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

// The oracle is the conservation discipline the roadmap leans on:
// aggregates may be merged in any order only if mass and first moment
// are conserved exactly. Mass is the record count (accepted_records and
// the plant roll-up must equal what was sent); the moment is checked by
// byte-comparing cube answers with the ones hod.CubeFromRecords gives
// offline for the same records, and answers after a reopen with the
// ones the same server gave before it went down.

// The oracle's two cube questions.
var qRollupLineSensor = hod.CubeQuery{Op: wire.CubeOpRollup, Keep: []string{"line", "sensor"}}

func qMachineSlice(machine string) hod.CubeQuery {
	return hod.CubeQuery{Op: wire.CubeOpSlice, Where: map[string]string{"machine": machine}}
}

// expected holds the offline answers for one record set. Identical
// plants share it.
type expected struct {
	records  uint64
	machine  string
	cube     *hod.Cube // kept for the olap replays of the traced pass
	rollup   []byte
	slice    []byte
	cubeSize int
}

// cubeBody canonicalises a cube answer for comparison: the plant id is
// the only field the offline cube cannot know.
func cubeBody(resp wire.CubeResponse) []byte {
	resp.Plant = ""
	buf, _ := json.Marshal(resp) // plain structs of strings and finite floats cannot fail
	return buf
}

// offlineExpected answers the oracle's cube questions from the records
// alone, without a server.
func offlineExpected(topo wire.Topology, recs []wire.Record, machine string) (*expected, error) {
	cube, err := hod.CubeFromRecords(topo, recs)
	if err != nil {
		return nil, err
	}
	exp := &expected{records: uint64(len(recs)), machine: machine, cube: cube, cubeSize: cube.Len()}
	for _, q := range []struct {
		query hod.CubeQuery
		into  *[]byte
	}{{qRollupLineSensor, &exp.rollup}, {qMachineSlice(machine), &exp.slice}} {
		resp, err := cube.Query(q.query)
		if err != nil {
			return nil, err
		}
		*q.into = cubeBody(resp)
	}
	return exp, nil
}

// observed is what one plant answered at one verification; the next
// verification of the same plant (after a reopen) must repeat it.
type observed struct {
	rollupMachine []byte
	report        []byte
}

// verifier runs the oracle against one server and times the cold reads
// made on each plant: the first /cube after ingest (a full merged-cube
// build) and the first /report of every machine (coldReports).
type verifier struct {
	r          *run
	c          *hod.Client
	machines   []string
	coldCube   hist
	coldReport hist
}

// coldReports asks for the report of each machine of a plant whose data
// changed since its last report: the machine's series are reassembled
// and Algorithm 1 runs on it, nothing cached. One machine at a time — a
// plant-wide cold report fans out over the cores and times the
// scheduler as much as the algorithm.
func (v *verifier) coldReports(ctx context.Context, plant string) {
	for _, m := range v.machines {
		start := time.Now()
		_, err := tracedCall(v.r.tr, ctx, "hod.report", func(ctx context.Context) (wire.ReportResponse, error) {
			return v.c.Report(ctx, plant, hod.ReportQuery{Level: hod.LevelPhase, Top: 20, Machine: m})
		})
		v.coldReport.record(time.Since(start))
		v.r.res.ok(err)
	}
}

// verify checks one plant and returns what it answered. prev is the
// plant's previous observation, nil at the first verification.
func (v *verifier) verify(ctx context.Context, plant string, exp *expected, prev *observed) *observed {
	res, tr := v.r.res, v.r.tr
	got := &observed{}

	st, err := tracedCall(tr, ctx, "hod.stats", func(ctx context.Context) (wire.StatsResponse, error) {
		return v.c.Stats(ctx, plant)
	})
	if res.ok(err) {
		res.ok(mismatch(st.AcceptedRecords == exp.records, "%s: accepted_records %d, sent %d", plant, st.AcceptedRecords, exp.records))
	}

	askCube := func(q hod.CubeQuery) (wire.CubeResponse, error) {
		return tracedCall(tr, ctx, "hod.cube", func(ctx context.Context) (wire.CubeResponse, error) {
			return v.c.Cube(ctx, plant, q)
		})
	}
	start := time.Now()
	cube, err := askCube(qRollupLineSensor)
	v.coldCube.record(time.Since(start))
	if res.ok(err) {
		res.ok(mismatch(bytes.Equal(cubeBody(cube), exp.rollup), "%s: rollup keep=line,sensor differs from the offline cube", plant))
		res.ok(mismatch(cube.TotalCells == exp.cubeSize, "%s: %d cube cells, offline %d", plant, cube.TotalCells, exp.cubeSize))
	}
	if cube, err = askCube(qMachineSlice(exp.machine)); res.ok(err) {
		res.ok(mismatch(bytes.Equal(cubeBody(cube), exp.slice), "%s: slice of %s differs from the offline cube", plant, exp.machine))
	}

	askRollup := func(level string) (wire.RollupResponse, error) {
		return tracedCall(tr, ctx, "hod.rollup", func(ctx context.Context) (wire.RollupResponse, error) {
			return v.c.Rollup(ctx, plant, level)
		})
	}
	if roll, err := askRollup("plant"); res.ok(err) {
		count := 0
		for _, n := range roll.Nodes {
			count += n.Count
		}
		res.ok(mismatch(uint64(count) == exp.records, "%s: plant roll-up count %d, sent %d", plant, count, exp.records))
	}
	if roll, err := askRollup("machine"); res.ok(err) {
		got.rollupMachine, _ = json.Marshal(roll)
		if prev != nil {
			res.ok(mismatch(bytes.Equal(got.rollupMachine, prev.rollupMachine), "%s: /rollup?level=machine changed across the reopen", plant))
		}
	}

	rep, err := tracedCall(tr, ctx, "hod.report", func(ctx context.Context) (wire.ReportResponse, error) {
		return v.c.Report(ctx, plant, hod.ReportQuery{Level: hod.LevelPhase, Top: 20})
	})
	if res.ok(err) {
		rep.DataRevision = 0 // a counter of this process's folds, not of the data
		got.report, _ = json.Marshal(rep)
		if prev != nil {
			res.ok(mismatch(bytes.Equal(got.report, prev.report), "%s: /report changed across the reopen", plant))
		}
	}
	return got
}

// mismatch turns a failed oracle comparison into the error that counts
// it as a failed operation.
func mismatch(equal bool, format string, args ...any) error {
	if equal {
		return nil
	}
	return fmt.Errorf("oracle: "+format, args...)
}
