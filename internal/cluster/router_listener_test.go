package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/pkg/hod/wire"
)

// TestRouterServeListenerTimeouts pins that the router's listener gets
// the serving layer's header-read and idle timeouts, like a node's.
func TestRouterServeListenerTimeouts(t *testing.T) {
	rt, err := NewRouter(RouterOptions{Peers: []wire.ClusterNode{{ID: "n1", Addr: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	hs := rt.httpServer()
	if hs.ReadHeaderTimeout != 10*time.Second || hs.IdleTimeout != 2*time.Minute {
		t.Fatalf("Router.ServeListener server has ReadHeaderTimeout %v, IdleTimeout %v; want 10s, 2m",
			hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
}

// restored is what a fake target read from one POST /restore.
type restored struct {
	body   []byte
	length int64
	err    error
}

// fakeMove sets up a plant move between two fake nodes: the source
// answers its stats idle and its backup with serveBackup, the target
// records the restore body it reads and its Content-Length. It returns
// the router, the target node and the target's record.
func fakeMove(t *testing.T, serveBackup http.HandlerFunc) (*Router, wire.ClusterNode, chan restored) {
	t.Helper()
	src := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/plants/p1/backup":
			serveBackup(w, r)
		default: // stats (idle) and release
			w.Write([]byte("{}"))
		}
	}))
	t.Cleanup(src.Close)
	got := make(chan restored, 1)
	dst := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/plants/p1/restore" {
			w.Write([]byte("{}"))
			return
		}
		body, err := io.ReadAll(r.Body)
		got <- restored{body, r.ContentLength, err}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusCreated)
	}))
	t.Cleanup(dst.Close)
	to := wire.ClusterNode{ID: "dst", Addr: dst.URL}
	rt, err := NewRouter(RouterOptions{Peers: []wire.ClusterNode{{ID: "src", Addr: src.URL}, to}, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.located["p1"] = "src"
	return rt, to, got
}

// TestMovePlantStreamsBackup: a plant move hands the new owner the old
// owner's backup byte for byte, with the old owner's Content-Length,
// and then locates the plant there.
func TestMovePlantStreamsBackup(t *testing.T) {
	backup := bytes.Repeat([]byte("hod backup "), 10_000)
	rt, to, got := fakeMove(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(backup)))
		w.Write(backup)
	})
	if err := rt.movePlant("p1", "src", to, rt.membership()); err != nil {
		t.Fatal(err)
	}
	rs := <-got
	if rs.err != nil || !bytes.Equal(rs.body, backup) || rs.length != int64(len(backup)) {
		t.Fatalf("target read %d bytes (%v) with Content-Length %d; want the source's %d", len(rs.body), rs.err, rs.length, len(backup))
	}
	if loc := rt.located["p1"]; loc != "dst" {
		t.Fatalf("plant located on %q after the move, want dst", loc)
	}
}

// TestMovePlantCutSourceFails: a source that dies mid-body fails the
// move, and the plant stays located on the old owner.
func TestMovePlantCutSourceFails(t *testing.T) {
	backup := bytes.Repeat([]byte("hod backup "), 10_000)
	rt, to, got := fakeMove(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(backup)))
		w.Write(backup[:len(backup)/2])
		http.NewResponseController(w).Flush()
		panic(http.ErrAbortHandler)
	})
	if err := rt.movePlant("p1", "src", to, rt.membership()); err == nil {
		t.Fatal("a move from a source cut mid-body succeeded")
	}
	select {
	case rs := <-got:
		if rs.err == nil {
			t.Fatalf("target read a whole body of %d bytes from a cut source", len(rs.body))
		}
	default: // the router gave up before the target read anything
	}
	if loc := rt.located["p1"]; loc != "src" {
		t.Fatalf("plant located on %q after a failed move, want src", loc)
	}
}
