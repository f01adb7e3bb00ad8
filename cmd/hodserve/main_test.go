package main

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/gateway"
)

// TestHTTPServerTimeouts pins the timeouts every hodserve listener gets
// from gateway.NewHTTPServer: bounded header reads and idle
// keep-alives, and no read or write deadline, which would cut push
// subscriptions and streamed ingest.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := gateway.NewHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"ReadHeaderTimeout", srv.ReadHeaderTimeout, 10 * time.Second},
		{"IdleTimeout", srv.IdleTimeout, 2 * time.Minute},
		{"ReadTimeout", srv.ReadTimeout, 0},
		{"WriteTimeout", srv.WriteTimeout, 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Errorf("server built with Addr %q, Handler %v", srv.Addr, srv.Handler)
	}
}
