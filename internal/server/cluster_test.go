package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/wal"
)

// TestClusterControlSurfaceGuard pins the contract the route table
// documents: the mutating node-side cluster endpoints (membership,
// replicate, release) are inert outside cluster mode and demand the
// internal header inside it. Before this guard, any client of a
// standalone open server could POST /v1/cluster/release and have the
// plant's data dir removed.
func TestClusterControlSurfaceGuard(t *testing.T) {
	mutating := []string{"/v1/cluster/membership", "/v1/cluster/replicate", "/v1/cluster/release"}

	post := func(ts *httptest.Server, path, body string, internal bool) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if internal {
			req.Header.Set(cluster.InternalHeader, "1")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Standalone server (no -node-id): the surface is inert, header or
	// not.
	standalone := New(Options{Shards: 2, QueueDepth: 16})
	defer standalone.Close()
	tsS := httptest.NewServer(standalone.Handler())
	defer tsS.Close()
	for _, path := range mutating {
		for _, internal := range []bool{false, true} {
			if resp := post(tsS, path, `{"plant":"p1"}`, internal); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("standalone POST %s (internal=%v) = %d, want 400", path, internal, resp.StatusCode)
			}
		}
	}

	// Cluster node: external traffic (no internal header) is refused
	// with a 403 and mutates nothing; internal traffic reaches the
	// handler.
	node := New(Options{Shards: 2, QueueDepth: 16, DataDir: t.TempDir(), Fsync: "none", ClusterNodeID: "n1"})
	if err := node.Open(); err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	tsN := httptest.NewServer(node.Handler())
	defer tsN.Close()

	register(t, tsN.URL, Topology{ID: "p1", Lines: []TopoLine{{ID: "l1", Machines: []string{"m1"}}}})
	for _, path := range mutating {
		if resp := post(tsN, path, `{"plant":"p1"}`, false); resp.StatusCode != http.StatusForbidden {
			t.Errorf("cluster node POST %s without internal header = %d, want 403", path, resp.StatusCode)
		}
	}
	if _, ok := node.plant("p1"); !ok {
		t.Fatal("unauthenticated release attempt removed the plant")
	}
	// With the header, release goes through (and is idempotent).
	if resp := post(tsN, "/v1/cluster/release", `{"plant":"p1"}`, true); resp.StatusCode != http.StatusOK {
		t.Fatalf("internal release = %d, want 200", resp.StatusCode)
	}
	if _, ok := node.plant("p1"); ok {
		t.Fatal("internal release did not remove the plant")
	}
	if resp := post(tsN, "/v1/cluster/release", `{"plant":"p1"}`, true); resp.StatusCode != http.StatusOK {
		t.Fatalf("repeated internal release = %d, want 200", resp.StatusCode)
	}
}

// TestApplyFramesTornVersusCorrupt pins the tailer's decode contract:
// a torn trailing frame (response cut mid-frame) is silently retried
// from the cursor, while a structurally corrupt frame — a length claim
// past the cap, or a payload that does not decode — surfaces as
// errShipCorrupt so the tail loop stops refetching the same bad bytes.
func TestApplyFramesTornVersusCorrupt(t *testing.T) {
	tailer := &walTailer{after: make([]uint64, 1)}

	// Torn mid-header and torn mid-payload: no error, no progress.
	var torn bytes.Buffer
	if err := cluster.WriteShipFrame(&torn, 7, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{4, torn.Len() - 3} {
		progress, err := tailer.applyFrames(nil, 0, bytes.NewReader(torn.Bytes()[:cut]))
		if err != nil || progress {
			t.Fatalf("torn frame cut at %d: progress=%v err=%v, want silent retry", cut, progress, err)
		}
	}

	// A frame whose header claims an absurd length is corruption, not a
	// torn tail.
	var huge bytes.Buffer
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], 7)
	binary.LittleEndian.PutUint32(hdr[8:12], 1<<30)
	huge.Write(hdr[:])
	if _, err := tailer.applyFrames(nil, 0, &huge); !errors.Is(err, errShipCorrupt) {
		t.Fatalf("oversized length claim: err = %v, want errShipCorrupt", err)
	}

	// A complete frame whose payload is not a WAL entry is corruption
	// too.
	var garbage bytes.Buffer
	if err := cluster.WriteShipFrame(&garbage, 7, []byte("not a gob entry")); err != nil {
		t.Fatal(err)
	}
	if _, err := tailer.applyFrames(nil, 0, &garbage); !errors.Is(err, errShipCorrupt) {
		t.Fatalf("undecodable payload: err = %v, want errShipCorrupt", err)
	}
}

// TestSeedCapMatchesRestore: POST /restore and a standby seed read a
// backup through one reader, readBackup, under one cap — never below
// 1 GiB, MaxBodyBytes when that is higher. A backup that fits the cap
// decodes; one byte over it is refused as too large, not cut short
// into a CRC mismatch.
func TestSeedCapMatchesRestore(t *testing.T) {
	for _, c := range []struct{ maxBody, want int64 }{{0, 1 << 30}, {2 << 30, 2 << 30}} {
		srv := New(Options{MaxBodyBytes: c.maxBody})
		if got := srv.restoreCap(); got != c.want {
			t.Errorf("MaxBodyBytes %d: restore cap %d, want %d", c.maxBody, got, c.want)
		}
		srv.Close()
	}
	payload, _ := livePlant(t).encodeState(true)
	backup := wal.EncodeSnapshot(7, payload)
	read := func(limit int64) (uint64, *plantState, error) {
		rev, ps, _, err := readBackup(nil, io.NopCloser(bytes.NewReader(backup)), limit)
		return rev, ps, err
	}
	if rev, ps, err := read(int64(len(backup))); err != nil || rev != 7 || ps.topo.ID != "plant-intern" {
		t.Fatalf("a backup at the cap: rev %d, %v", rev, err)
	}
	if _, _, err := read(int64(len(backup)) - 1); err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("a backup one byte over the cap: %v, want it refused as too large", err)
	}
}
