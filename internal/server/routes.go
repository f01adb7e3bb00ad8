package server

import "net/http"

// route is one entry of the server's typed route table: the v1 surface
// as data, consumed both by New (which mounts every entry, wrapping the
// non-open ones in the gateway middleware chain) and by tests that
// enumerate the surface. Plant-scoped routes carry the {id} wildcard in
// their pattern; the ServeMux extracts it once and both the scope
// middleware and withPlant read it via r.PathValue — no handler parses
// the path by hand.
type route struct {
	method  string
	pattern string
	// open routes skip the middleware chain — only liveness, which must
	// answer even with auth misconfigured. The push endpoint goes
	// through the chain like everything else (TenantScope passes routes
	// without an {id} segment; per-channel scoping happens in the
	// handler).
	open    bool
	handler http.HandlerFunc
}

// routes returns the complete v1 route table. Every endpoint the server
// serves is an entry here; the package doc lists the same set in prose.
func (s *Server) routes() []route {
	return []route{
		{method: "GET", pattern: "/healthz", open: true, handler: s.handleHealthz},
		{method: "POST", pattern: "/v1/plants", handler: s.handleRegister},
		{method: "GET", pattern: "/v1/plants", handler: s.handleList},
		{method: "POST", pattern: "/v1/plants/{id}/ingest", handler: s.withPlant(s.handleIngest)},
		{method: "POST", pattern: "/v1/plants/{id}/jobs", handler: s.withPlant(s.handleJobs)},
		{method: "GET", pattern: "/v1/plants/{id}/report", handler: s.withPlant(s.handleReport)},
		{method: "GET", pattern: "/v1/plants/{id}/rollup", handler: s.withPlant(s.handleRollup)},
		{method: "GET", pattern: "/v1/plants/{id}/cube", handler: s.withPlant(s.handleCube)},
		{method: "GET", pattern: "/v1/plants/{id}/alerts", handler: s.withPlant(s.handleAlerts)},
		{method: "GET", pattern: "/v1/plants/{id}/stats", handler: s.withPlant(s.handleStats)},
		{method: "GET", pattern: "/v1/plants/{id}/backup", handler: s.withPlant(s.handleBackup)},
		{method: "POST", pattern: "/v1/plants/{id}/restore", handler: s.handleRestore},
		{method: "GET", pattern: "/v1/events", handler: s.handleEvents},
		// The node-side cluster control surface (internal/cluster
		// NodeRoutes): membership pushes, standby seeding, WAL tailing.
		// Mounted unconditionally — outside cluster mode membership
		// pushes are refused and the rest is inert — and guarded by the
		// internal header where it mutates, not by tenant auth: cluster
		// traffic assumes an unauthenticated internal network.
		{method: "GET", pattern: "/v1/cluster/status", handler: s.handleClusterStatus},
		{method: "POST", pattern: "/v1/cluster/membership", handler: s.handleClusterMembership},
		{method: "POST", pattern: "/v1/cluster/replicate", handler: s.handleClusterReplicate},
		{method: "POST", pattern: "/v1/cluster/release", handler: s.handleClusterRelease},
		{method: "GET", pattern: "/v1/plants/{id}/wal", handler: s.handleWalTail},
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
