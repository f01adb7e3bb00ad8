package cluster

import (
	"bytes"
	"errors"
	"io"
	"net/http"
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

// TestReadBackupRefusesOversize: a plant move reads the old owner's
// backup whole up to the cap, and one byte over it is refused as too
// large instead of cut short to the cap.
func TestReadBackupRefusesOversize(t *testing.T) {
	const limit = 64
	body := bytes.Repeat([]byte{7}, limit)
	got, err := readBackup(io.NopCloser(bytes.NewReader(body)), limit)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("a %d-byte body at a %d-byte cap: %d bytes, %v", len(body), limit, len(got), err)
	}
	got, err = readBackup(io.NopCloser(bytes.NewReader(append(body, 7))), limit)
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) || got != nil {
		t.Fatalf("a %d-byte body at a %d-byte cap: %d bytes, %v; want refused as too large", len(body)+1, limit, len(got), err)
	}
}
