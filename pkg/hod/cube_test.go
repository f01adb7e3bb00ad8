package hod_test

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/olap"
	"repro/internal/server"
	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

// TestClientCubeMatchesEngineCube proves the two faces of the cube are
// one subsystem: every Cube* query answered by a hodserve fed the
// plant's trace equals the same query against the engine's batch-built
// cube — cells, dims, members, and ordering.
func TestClientCubeMatchesEngineCube(t *testing.T) {
	p, err := hod.Simulate(hod.SimConfig{
		Seed: 11, Lines: 2, MachinesPerLine: 2, JobsPerMachine: 3,
		PhaseSamples: 16, FaultRate: 0.3, MeasurementErrorRate: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, server.Options{Shards: 3, QueueDepth: 16})
	client := hod.NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := client.Register(ctx, p.Topology("cb")); err != nil {
		t.Fatal(err)
	}
	recs := p.Records()
	if _, err := client.Ingest(ctx, "cb", recs); err != nil {
		t.Fatal(err)
	}
	if err := client.WaitDrained(ctx, "cb", uint64(len(recs))); err != nil {
		t.Fatal(err)
	}

	engine, err := hod.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := engine.Cube()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cube.Dims(), hod.CubeDims()) {
		t.Fatalf("engine cube dims %v", cube.Dims())
	}

	m0 := p.Machines()[0]
	queries := []hod.CubeQuery{
		{},
		{Op: wire.CubeOpSlice, Where: map[string]string{"machine": m0}},
		{Op: wire.CubeOpRollup, Keep: []string{"line", "sensor"}},
		{Op: wire.CubeOpRollup, Keep: []string{"phase"}, Where: map[string]string{"machine": m0}},
		{Op: wire.CubeOpMembers, Dim: "job"},
		{Op: wire.CubeOpDrilldown, Dim: "machine", Where: map[string]string{"line": "line-1"}},
	}
	for _, q := range queries {
		want, err := cube.Query(q)
		if err != nil {
			t.Fatalf("engine %+v: %v", q, err)
		}
		got, err := client.Cube(ctx, "cb", q)
		if err != nil {
			t.Fatalf("client %+v: %v", q, err)
		}
		if got.Plant != "cb" {
			t.Fatalf("served plant %q", got.Plant)
		}
		want.Plant = got.Plant
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("served cube differs from engine cube for %+v:\nserved: %+v\nengine: %+v", q, got, want)
		}
	}

	// The convenience wrappers hit the same endpoint.
	sl, err := client.CubeSlice(ctx, "cb", map[string]string{"machine": m0})
	if err != nil || sl.Op != wire.CubeOpSlice {
		t.Fatalf("CubeSlice: %+v, %v", sl.Op, err)
	}
	ru, err := client.CubeRollup(ctx, "cb", []string{"machine"}, nil)
	if err != nil || len(ru.Cells) != len(p.Machines()) {
		t.Fatalf("CubeRollup: %d cells, %v", len(ru.Cells), err)
	}
	mem, err := client.CubeMembers(ctx, "cb", "phase")
	if err != nil || len(mem.Members) == 0 {
		t.Fatalf("CubeMembers: %+v, %v", mem, err)
	}
	dd, err := client.CubeDrilldown(ctx, "cb", "phase", map[string]string{"machine": m0})
	if err != nil || len(dd.Cells) == 0 {
		t.Fatalf("CubeDrilldown: %+v, %v", dd, err)
	}

	// Server-side validation surfaces as the bad-request sentinel, the
	// same way the embedded cube rejects the query.
	if _, err := client.Cube(ctx, "cb", hod.CubeQuery{Op: "pivot"}); !errors.Is(err, hod.ErrBadRequest) {
		t.Fatalf("bad op over HTTP: %v", err)
	}
	if _, err := cube.Query(hod.CubeQuery{Op: "pivot"}); !errors.Is(err, hod.ErrBadRequest) {
		t.Fatalf("bad op embedded: %v", err)
	}
}

// TestCubeFromRecordsIdempotent pins the first-seen contract that
// makes batch-built and served cubes equal on replayed traces:
// duplicate samples of one cell fold once, environment records are
// skipped, unknown machines and non-finite values are typed errors.
func TestCubeFromRecordsIdempotent(t *testing.T) {
	topo := wire.Topology{ID: "t", Lines: []wire.TopoLine{{ID: "l1", Machines: []string{"l1/m1"}}}}
	recs := []wire.Record{
		{Machine: "l1/m1", Job: "j1", Phase: "print", Sensor: "temp-a", T: 0, Value: 2},
		{Machine: "l1/m1", Job: "j1", Phase: "print", Sensor: "temp-a", T: 0, Value: 99}, // replay: first-seen wins
		{Machine: "l1/m1", Job: "j1", Phase: "print", Sensor: "temp-a", T: 1, Value: 4},
		{Env: true, Sensor: "room-temp", T: 0, Value: 20}, // no machine coordinate
	}
	cube, err := hod.CubeFromRecords(topo, recs)
	if err != nil {
		t.Fatal(err)
	}
	if cube.Len() != 1 {
		t.Fatalf("cube has %d cells, want 1", cube.Len())
	}
	resp, err := cube.Slice(nil)
	if err != nil {
		t.Fatal(err)
	}
	cell := resp.Cells[0]
	if cell.Count != 2 || cell.Sum != 6 || cell.Min != 2 || cell.Max != 4 {
		t.Fatalf("cell %+v, want first-seen fold of 2 samples", cell)
	}

	if _, err := hod.CubeFromRecords(topo, []wire.Record{{Machine: "ghost", Job: "j", Phase: "p", Sensor: "s"}}); !errors.Is(err, hod.ErrUnknownMachine) {
		t.Fatalf("unknown machine: %v", err)
	}
	// A job name that is not valid UTF-8 is refused like the server's
	// ingest refuses it, not folded into a cell that answers as U+FFFD.
	if _, err := hod.CubeFromRecords(topo, []wire.Record{{Machine: recs[0].Machine, Job: "\xff", Phase: "p", Sensor: "s"}}); !errors.Is(err, hod.ErrBadRequest) {
		t.Fatalf("invalid UTF-8 job: %v", err)
	}
}

// TestCubeSumOverflowIsNotBadRequest: two samples of 1e308 are
// accepted data, each its own cell; rolled up onto their shared sensor
// the group sum overflows. The question was valid, so neither face of
// the cube may call it a bad request: the embedded cube returns an
// error wrapping olap.ErrNonFinite, the server a 500 internal.
func TestCubeSumOverflowIsNotBadRequest(t *testing.T) {
	topo := wire.Topology{ID: "of", Lines: []wire.TopoLine{{ID: "l1", Machines: []string{"l1/m1", "l1/m2"}}}}
	recs := []wire.Record{
		{Machine: "l1/m1", Job: "j1", Phase: "print", Sensor: "temp-a", T: 0, Value: 1e308},
		{Machine: "l1/m2", Job: "j1", Phase: "print", Sensor: "temp-a", T: 0, Value: 1e308},
	}
	rollup := hod.CubeQuery{Op: wire.CubeOpRollup, Keep: []string{"sensor"}}

	cube, err := hod.CubeFromRecords(topo, recs)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cube.Query(rollup)
	if !errors.Is(err, olap.ErrNonFinite) || errors.Is(err, hod.ErrBadRequest) {
		t.Fatalf("embedded: err = %v, want olap.ErrNonFinite and not hod.ErrBadRequest", err)
	}

	_, ts := newTestServer(t, server.Options{})
	client := hod.NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := client.Register(ctx, topo); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Ingest(ctx, "of", recs); err != nil {
		t.Fatal(err)
	}
	if err := client.WaitDrained(ctx, "of", uint64(len(recs))); err != nil {
		t.Fatal(err)
	}
	_, err = client.Cube(ctx, "of", rollup)
	var apiErr *hod.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError || apiErr.Code != wire.CodeInternal || errors.Is(err, hod.ErrBadRequest) {
		t.Fatalf("served: err = %v, want a 500 internal that is not hod.ErrBadRequest", err)
	}
	// Per-machine groups hold one cell each: the same data answers.
	if resp, err := client.Cube(ctx, "of", hod.CubeQuery{Op: wire.CubeOpRollup, Keep: []string{"machine"}}); err != nil || len(resp.Cells) != 2 {
		t.Fatalf("rollup by machine: %+v, %v", resp, err)
	}
}
