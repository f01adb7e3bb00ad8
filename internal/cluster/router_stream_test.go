package cluster_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

// TestRouterStreamsSubscription subscribes through the router: the
// SSE stream proxied from the plant's owner must deliver each
// ingest's cube_delta while it is still open, not buffer until close,
// and a wildcard channel must get the typed 400 through the router.
func TestRouterStreamsSubscription(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	nodes := startNodes(t, 2)
	_, base := startRouter(t, nodes)
	client := hod.NewClient(base)
	topo, recs := simPlant(t, 41, "plant-s")
	if _, err := client.Register(ctx, topo); err != nil {
		t.Fatal(err)
	}

	_, err := client.SubscribeCube(ctx) // cube:* — no single owner to route to
	var apiErr *hod.APIError
	if !errors.Is(err, hod.ErrBadRequest) || !errors.As(err, &apiErr) || apiErr.Code != wire.CodeBadRequest {
		t.Fatalf("wildcard subscribe through the router: err = %v, want typed 400", err)
	}

	sub, err := client.SubscribeCube(ctx, "plant-s")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	half := len(recs) / 2
	sent := 0
	for _, batch := range [][]wire.Record{recs[:half], recs[half:]} {
		if _, err := client.Ingest(ctx, "plant-s", batch); err != nil {
			t.Fatal(err)
		}
		sent += len(batch)
		if err := client.WaitDrained(ctx, "plant-s", uint64(sent)); err != nil {
			t.Fatal(err)
		}
		st, err := client.Stats(ctx, "plant-s")
		if err != nil {
			t.Fatal(err)
		}
		for got := uint64(0); got < st.DataRevision; {
			next, cancelNext := context.WithTimeout(ctx, 10*time.Second)
			ev, err := sub.Next(next)
			cancelNext()
			if err != nil {
				t.Fatalf("after %d records: stream stalled at revision %d of %d: %v", sent, got, st.DataRevision, err)
			}
			got = ev.Revision
		}
	}
	if n := sub.Reconnects(); n != 0 {
		t.Fatalf("routed stream redialed %d times", n)
	}
}

// TestRouterShutdownEndsStreams stops a router the way hodserve does —
// Close, then http.Server.Shutdown — with a routed subscriber attached.
// Shutdown cancels no request context, so the stream must end on
// Close for Shutdown to return well inside its budget.
func TestRouterShutdownEndsStreams(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	nodes := startNodes(t, 1)
	rt, admin := startRouter(t, nodes)
	topo, _ := simPlant(t, 42, "plant-d")
	if _, err := hod.NewClient(admin).Register(ctx, topo); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := gateway.NewHTTPServer("", rt.Handler())
	go hs.Serve(ln)
	defer hs.Close()
	sub, err := hod.NewClient("http://"+ln.Addr().String()).SubscribeStats(ctx, "plant-d")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := sub.Next(ctx); err != nil { // the seeded snapshot: the stream is up
		t.Fatal(err)
	}

	const budget = 5 * time.Second
	sctx, scancel := context.WithTimeout(context.Background(), budget)
	defer scancel()
	start := time.Now()
	rt.Close()
	if err := hs.Shutdown(sctx); err != nil {
		t.Fatalf("router Shutdown with an open subscriber: %v after %v", err, time.Since(start))
	}
	if took := time.Since(start); took > budget/2 {
		t.Fatalf("router Shutdown took %v of its %v budget", took, budget)
	}
}
