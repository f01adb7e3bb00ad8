package hod

import (
	"errors"
	"fmt"

	"repro/internal/olap"
	"repro/pkg/hod/wire"
)

// Cube is the embedded counterpart of the served OLAP cube: the same
// dimensions (line × machine × job × phase × sensor), built in one
// batch pass instead of incrementally, and answered by the same query
// engine the server uses — so a slice, rollup, members, or drilldown
// over an embedded cube returns exactly the cells the serving layer
// would for the same data.
type Cube struct {
	c *olap.Cube
}

// CubeDims returns the dimension names of the serving cube, in
// coordinate order (wire.CubeDims, the protocol's single definition).
func CubeDims() []string { return wire.CubeDims() }

// CubeFromRecords builds a cube from wire records, using the topology
// for the machine→line mapping. Environment records carry no machine
// coordinate and are skipped. Duplicate samples of one
// (machine, job, phase, sensor, t) cell fold their first-seen value
// only — mirroring the serving layer's idempotent ingest store, which
// is what makes the batch-built and served cubes equal on a replayed
// trace. Non-finite values are rejected (olap.ErrNonFinite), the same
// policy the server's ingest validation enforces.
func CubeFromRecords(topo wire.Topology, recs []wire.Record) (*Cube, error) {
	machineLine := make(map[string]string)
	for _, l := range topo.Lines {
		for _, m := range l.Machines {
			machineLine[m] = l.ID
		}
	}
	c, err := olap.New(wire.CubeDims()...)
	if err != nil {
		return nil, err
	}
	type sampleKey struct {
		machine, job, phase, sensor string
		t                           int
	}
	seen := make(map[sampleKey]bool, len(recs))
	for _, rec := range recs {
		if rec.Env {
			continue
		}
		line, ok := machineLine[rec.Machine]
		if !ok {
			return nil, fmt.Errorf("%w: %q is not in the topology", ErrUnknownMachine, rec.Machine)
		}
		// The served cube never sees identifiers with control
		// characters (registration and ingest vet them with the same
		// rule); apply the gate here too so the batch-built cube cannot
		// fold records the server would have rejected.
		for _, id := range []struct{ kind, val string }{
			{"job", rec.Job}, {"phase", rec.Phase}, {"sensor", rec.Sensor},
		} {
			if err := wire.ValidIdent(id.kind, id.val); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
		}
		k := sampleKey{rec.Machine, rec.Job, rec.Phase, rec.Sensor, rec.T}
		if seen[k] {
			continue
		}
		seen[k] = true
		if err := c.AddFact([]string{line, rec.Machine, rec.Job, rec.Phase, rec.Sensor}, rec.Value); err != nil {
			return nil, err
		}
	}
	return &Cube{c: c}, nil
}

// Cube builds the batch OLAP cube of the engine's plant — every
// machine sensor sample folded as one fact.
func (e *Engine) Cube() (*Cube, error) {
	return CubeFromRecords(e.plant.Topology(""), e.plant.Records())
}

// Dims returns the cube's dimension names in coordinate order.
func (c *Cube) Dims() []string { return c.c.Dims() }

// Len returns the number of materialised cells.
func (c *Cube) Len() int { return c.c.Len() }

// Query answers one cube question with the identical evaluation (and
// deterministic cell ordering) the serving layer applies to
// GET /v1/plants/{id}/cube. The returned response carries no plant id.
// A malformed question is ErrBadRequest; a group whose float sum
// overflows is not the question's fault, and its error is not one.
func (c *Cube) Query(q CubeQuery) (wire.CubeResponse, error) {
	res, err := c.c.Answer(olap.Query{Op: q.Op, Where: q.Where, Keep: q.Keep, Dim: q.Dim})
	if errors.Is(err, olap.ErrNonFinite) {
		return wire.CubeResponse{}, fmt.Errorf("hod: cube answer: %w", err)
	}
	if err != nil {
		return wire.CubeResponse{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return wire.CubeResponse{
		Op: res.Op, Dims: res.Dims, Where: res.Where,
		Members: res.Members, Cells: res.Cells, TotalCells: res.TotalCells,
	}, nil
}

// Slice returns the cells matching the dimension=member constraints at
// full dimensionality (nil = every materialised cell).
func (c *Cube) Slice(where map[string]string) (wire.CubeResponse, error) {
	return c.Query(CubeQuery{Op: wire.CubeOpSlice, Where: where})
}

// RollUp aggregates onto the kept dimensions, optionally within a
// where-constrained slice.
func (c *Cube) RollUp(keep []string, where map[string]string) (wire.CubeResponse, error) {
	return c.Query(CubeQuery{Op: wire.CubeOpRollup, Keep: keep, Where: where})
}

// Members lists the distinct members of one dimension.
func (c *Cube) Members(dim string) (wire.CubeResponse, error) {
	return c.Query(CubeQuery{Op: wire.CubeOpMembers, Dim: dim})
}

// Drilldown expands one dimension inside a where-constrained slice.
func (c *Cube) Drilldown(dim string, where map[string]string) (wire.CubeResponse, error) {
	return c.Query(CubeQuery{Op: wire.CubeOpDrilldown, Dim: dim, Where: where})
}
