package server

import (
	"errors"
	"net/http"
	"strings"
	"sync"

	"repro/internal/olap"
	"repro/pkg/hod/wire"
)

// The serving layer maintains one OLAP cube per plant over the machine
// sensor stream — dimensions line × machine × job × phase × sensor,
// one fact per first-seen sample. A coordinate names exactly one sample
// column of the per-machine store, so the cells live there, beside the
// columns (cellGrid.cells), and are folded where the samples are
// (foldRefs, under the machine's mutex). The cube therefore rides the
// WAL + snapshot recovery contract for free: replayed batches rebuild
// it through the same path, and a snapshot carries each cell beside
// the column it aggregates.

// cubeDims are the fixed dimensions of the per-plant serving cube —
// the wire package owns the list, shared with the SDK's batch builder.
var cubeDims = wire.CubeDims()

// cubeView is the plant's cube as the evaluator sees it: one walk of
// the machine stores — jobs, grids, cells — each store behind its
// mutex, with the plant's intern tables as the dictionary. A store that
// a line or machine pin rules out only adds its count. Only the cells
// a question matches are copied out under a store's lock; ordering,
// grouping and translating ids back to names happen outside it, on the
// copies.
func (ps *plantState) cubeView() olap.View {
	in := ps.in
	return olap.View{
		Dims:  cubeDims,
		Dict:  []olap.Dim{in.lines, in.machines, in.jobs, in.phases, in.sensors},
		Ranks: &ps.ranks,
		Scan: func(pins []olap.Pin, visit func(*olap.IntCell)) int {
			total := 0
			for _, ms := range ps.mstores {
				ms.mu.Lock()
				total += ms.nCells
				if visit != nil && ms.meets(pins) {
					ms.eachCell(visit)
				}
				ms.mu.Unlock()
			}
			return total
		},
	}
}

// meets reports whether the machine's cells can meet the pins: whether
// no pin names another line or machine. The dimensions are positions
// in the cells' coordinates, which start (line, machine).
func (ms *machineStore) meets(pins []olap.Pin) bool {
	for _, p := range pins {
		switch {
		case p.Dim == 0 && p.ID != ms.line, p.Dim == 1 && p.ID != ms.id:
			return false
		}
	}
	return true
}

// eachCell visits the machine's cube cells, jobs in map order. Callers
// must hold mu.
func (ms *machineStore) eachCell(visit func(*olap.IntCell)) {
	for _, js := range ms.jobsByID {
		for _, g := range js.phases {
			if g == nil {
				continue
			}
			for s := range g.cells {
				if g.cells[s].Count > 0 {
					visit(&g.cells[s])
				}
			}
		}
	}
}

// handleCube answers one OLAP query over the plant's cube:
//
//	GET /v1/plants/{id}/cube?op=slice&where=machine=line-0/m-0&where=phase=print
//	GET /v1/plants/{id}/cube?op=rollup&keep=line,sensor
//	GET /v1/plants/{id}/cube?op=members&dim=phase
//	GET /v1/plants/{id}/cube?op=drilldown&dim=machine&where=line=line-0
//
// op defaults to slice. where repeats as dim=member pairs; keep is a
// comma-separated dimension list. Cells come back in deterministic
// coordinate order, so equal queries yield byte-identical bodies. The
// body is wire.ContentTypeCube when the Accept header names it, else
// JSON; errors are the JSON envelope either way. A malformed question
// is a 400; a group whose float sum overflows is the server's limit,
// not the client's fault, and answers 500 internal.
func (s *Server) handleCube(w http.ResponseWriter, r *http.Request, ps *plantState) {
	w.Header().Set("Vary", "Accept")
	// The grammar is wire.CubeQueryParams — the same Encode/Decode pair
	// the SDK builds requests with, so client and server cannot drift.
	p, err := wire.DecodeCubeQueryParams(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	res, err := ps.cubeView().Answer(olap.Query{Op: p.Op, Dim: p.Dim, Keep: p.Keep, Where: p.Where})
	switch {
	case errors.Is(err, olap.ErrNonFinite):
		writeErr(w, http.StatusInternalServerError, wire.CodeInternal, err.Error())
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	resp := wire.CubeResponse{
		Plant: ps.topo.ID, Op: res.Op, Dims: res.Dims, Where: res.Where,
		Members: res.Members, Cells: res.Cells, TotalCells: res.TotalCells,
	}
	buf := cubeBufs.Get().(*[]byte)
	defer cubeBufs.Put(buf)
	if acceptsCube(r.Header) {
		*buf, err = wire.AppendCubeBinary((*buf)[:0], &resp)
		writeEncoded(w, http.StatusOK, wire.ContentTypeCube, *buf, err)
		return
	}
	*buf, err = wire.AppendCubeResponse((*buf)[:0], &resp)
	*buf = append(*buf, '\n')
	writeEncoded(w, http.StatusOK, "application/json", *buf, err)
}

// acceptsCube reports whether the Accept header names the binary cube
// body among its media ranges.
func acceptsCube(h http.Header) bool {
	for _, v := range h.Values("Accept") {
		for v != "" {
			var mr string
			mr, v, _ = strings.Cut(v, ",")
			mr, _, _ = strings.Cut(mr, ";")
			if strings.EqualFold(strings.TrimSpace(mr), wire.ContentTypeCube) {
				return true
			}
		}
	}
	return false
}

// cubeBufs recycles /cube body buffers: a machine slice is a few
// hundred kilobytes, encoded once and dropped after the write.
var cubeBufs = sync.Pool{New: func() any { return new([]byte) }}
