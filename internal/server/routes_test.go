package server

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/gateway"
)

// testTenants is the authenticated-mode fixture shared by the gateway
// integration tests: one scoped tenant, one operator.
func testTenants() map[string]gateway.Tenant {
	return map[string]gateway.Tenant{
		"key-acme": {Name: "acme", Plants: []string{"p1"}},
		"key-op":   {Name: "op"},
	}
}

// The v1 surface, pinned. A new endpoint must be added here AND to the
// route table (and the package doc) — the test fails on any drift in
// either direction.
var wantRoutes = []string{
	"GET /healthz",
	"POST /v1/plants",
	"GET /v1/plants",
	"POST /v1/plants/{id}/ingest",
	"POST /v1/plants/{id}/jobs",
	"GET /v1/plants/{id}/report",
	"GET /v1/plants/{id}/rollup",
	"GET /v1/plants/{id}/cube",
	"GET /v1/plants/{id}/alerts",
	"GET /v1/plants/{id}/stats",
	"GET /v1/plants/{id}/backup",
	"POST /v1/plants/{id}/restore",
	"GET /v1/events",
	"GET /v1/cluster/status",
	"POST /v1/cluster/membership",
	"POST /v1/cluster/replicate",
	"POST /v1/cluster/release",
	"GET /v1/plants/{id}/wal",
}

func TestRouteTablePinned(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	got := map[string]bool{}
	openCount := 0
	for _, rt := range s.routes() {
		key := rt.method + " " + rt.pattern
		if got[key] {
			t.Fatalf("duplicate route %s", key)
		}
		got[key] = true
		if rt.handler == nil {
			t.Fatalf("route %s has a nil handler", key)
		}
		if rt.open {
			openCount++
			if rt.pattern != "/healthz" {
				t.Errorf("route %s skips the middleware chain; only /healthz may", key)
			}
		}
	}
	for _, key := range wantRoutes {
		if !got[key] {
			t.Errorf("route table is missing %s", key)
		}
		delete(got, key)
	}
	for key := range got {
		t.Errorf("route table has unpinned route %s", key)
	}
	if openCount != 1 {
		t.Errorf("open routes = %d, want 1 (/healthz)", openCount)
	}
}

// TestRouteTableMatchesClusterSpec pins the server's route table
// against the routing tier's copy of the surface: the router proxies
// exactly what cluster.V1Routes says, so any drift between the two
// tables would silently strand an endpoint outside the cluster.
func TestRouteTableMatchesClusterSpec(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	served := map[string]bool{}
	for _, rt := range s.routes() {
		served[rt.method+" "+rt.pattern] = true
	}
	specs := append(cluster.V1Routes(), cluster.NodeRoutes()...)
	for _, sp := range specs {
		key := sp.Method + " " + sp.Pattern
		if !served[key] {
			t.Errorf("cluster route spec %s is not in the server's route table", key)
		}
		delete(served, key)
	}
	for key := range served {
		t.Errorf("server route %s is missing from the cluster route specs", key)
	}
}

// TestEveryRouteMounted proves the table is what New actually serves:
// each entry answers something other than the mux's own text/plain 404
// fallback (handler-level JSON 404s for the unknown plant id count as
// mounted).
func TestEveryRouteMounted(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	for _, rt := range s.routes() {
		path := strings.ReplaceAll(rt.pattern, "{id}", "nope")
		req := httptest.NewRequest(rt.method, path, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code == 405 {
			t.Errorf("%s %s: method not allowed — pattern/method mismatch", rt.method, path)
		}
		if rec.Code == 404 && !strings.Contains(rec.Header().Get("Content-Type"), "json") {
			t.Errorf("%s %s: mux fallback 404 — route not mounted", rt.method, path)
		}
	}
}

// TestHealthzOpenWithAuth pins the one middleware exemption: liveness
// answers without a key even in authenticated mode, while the rest of
// the surface demands one.
func TestHealthzOpenWithAuth(t *testing.T) {
	s := New(Options{Tenants: testTenants()})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("healthz = %d with auth enabled, want 200", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/plants", nil))
	if rec.Code != 401 {
		t.Fatalf("unauthenticated list = %d, want 401", rec.Code)
	}
}

// TestServeListenerTimeouts pins that the in-process listener gets the
// serving layer's header-read and idle timeouts, like hodserve's.
func TestServeListenerTimeouts(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	hs := s.HTTPServer("")
	if hs.ReadHeaderTimeout != 10*time.Second || hs.IdleTimeout != 2*time.Minute {
		t.Fatalf("ServeListener server has ReadHeaderTimeout %v, IdleTimeout %v; want 10s, 2m",
			hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
}
