package server

import (
	"fmt"
	"net/http"
	"slices"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/pkg/hod/wire"
)

// The report wire shapes live in pkg/hod/wire, shared with the typed
// client; the server only converts core results onto them.
type (
	FleetOutlier   = wire.FleetOutlier
	FleetWarning   = wire.FleetWarning
	ReportResponse = wire.ReportResponse
)

// handleReport computes (or serves from cache) the hierarchical
// outlier report. ?level=1..5 (or a level name) picks the start level,
// ?top=K bounds the outlier list, ?machine=id restricts to one
// machine's drill-down.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request, ps *plantState) {
	level, err := parseLevel(r.URL.Query().Get("level"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	topK, err := queryInt(r, "top", 20)
	if err != nil {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	machineFilter := r.URL.Query().Get("machine")

	ps.reportMu.Lock()
	defer ps.reportMu.Unlock()
	v, err := ps.snapshot()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, wire.CodeInternal, "snapshot: "+err.Error())
		return
	}
	if len(v.plant.Lines) == 0 {
		writeErr(w, http.StatusConflict, wire.CodeNoData, "no data ingested yet")
		return
	}

	machines := v.activeMachines()
	if machineFilter != "" {
		if !slices.Contains(machines, machineFilter) {
			writeErr(w, http.StatusNotFound, wire.CodeUnknownMachine,
				fmt.Sprintf("machine %q has no data (or is unregistered)", machineFilter))
			return
		}
		machines = []string{machineFilter}
	}
	var missing []string
	for _, m := range ps.in.machines.Names() {
		if _, err := v.plant.MachineByID(m); err != nil {
			missing = append(missing, m)
		}
	}
	slices.Sort(missing) // the response lists them by name, not registration order

	reports, err := v.reportsFor(machines, level, s.opts)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, wire.CodeInternal, err.Error())
		return
	}

	// Rank fleet-wide while still holding core.Outlier values, and
	// convert only the top K to wire form.
	ranked, warnings := core.RankFleet(machines, reports)
	resp := ReportResponse{
		Plant: ps.topo.ID, Level: level.String(), Machines: machines,
		Missing: missing, TotalOutliers: len(ranked), TopK: topK,
		Warnings: warnings, DataRevision: v.rev,
	}
	ranked = ranked[:min(topK, len(ranked))]
	resp.Outliers = make([]FleetOutlier, len(ranked))
	for i, t := range ranked {
		resp.Outliers[i] = FleetOutlier{Machine: t.Machine, Outlier: t.Outlier.Wire()}
	}
	writeJSON(w, http.StatusOK, resp)
}

// reportsFor runs Algorithm 1 for each machine (parallel fan-out via
// internal/parallel, bounded by the -workers knob), serving machines
// already reported at this level from the view's memo.
func (v *reportView) reportsFor(machines []string, level core.Level, opts Options) ([]*core.Report, error) {
	coreOpts := core.Options{MaxOutliers: opts.MaxOutliers}
	out := make([]*core.Report, len(machines))
	var misses []int
	for i, id := range machines {
		if rep, ok := v.reports[reportKey{id, level}]; ok {
			out[i] = rep
		} else {
			misses = append(misses, i)
		}
	}
	if len(misses) == 0 {
		return out, nil
	}
	// Hierarchies must exist before the parallel section (map writes).
	hs := make([]*core.Hierarchy, len(misses))
	for k, i := range misses {
		h, err := v.hierarchyFor(machines[i])
		if err != nil {
			return nil, err
		}
		hs[k] = h
	}
	reps, err := parallel.Map(len(misses), opts.Workers, func(k int) (*core.Report, error) {
		return core.FindHierarchicalOutliers(hs[k], level, coreOpts)
	})
	if err != nil {
		return nil, err
	}
	for k, i := range misses {
		out[i] = reps[k]
		v.reports[reportKey{machines[i], level}] = reps[k]
	}
	return out, nil
}

// parseLevel maps the wire's level grammar onto the core enum — the
// two packages use the same 1..5 integers.
func parseLevel(s string) (core.Level, error) {
	lv, err := wire.ParseLevel(s)
	if err != nil {
		return 0, err
	}
	return core.Level(lv), nil
}
