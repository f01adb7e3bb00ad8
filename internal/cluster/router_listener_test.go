package cluster

import (
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
