package hod_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

// sseServer is a bare GET /v1/events endpoint: it sends cube_delta
// revisions 1..events, one every gap, then holds the stream open.
func sseServer(t *testing.T, events int, gap time.Duration) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/events" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		rc := http.NewResponseController(w)
		for rev := 1; rev <= events; rev++ {
			fmt.Fprintf(w, "event: cube_delta\ndata: {\"kind\":\"cube_delta\",\"plant\":\"p\",\"revision\":%d}\n\n", rev)
			if rc.Flush() != nil {
				return
			}
			select {
			case <-r.Context().Done():
				return
			case <-time.After(gap):
			}
		}
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	return ts
}

// readRevisions reads revisions 1..n in order, each Next under its own
// short-lived context, and fails on any redial but the one a Drop after
// revision dropAt (0 = none) forces.
func readRevisions(t *testing.T, ctx context.Context, sub *hod.Subscription, n, dropAt int) {
	t.Helper()
	for want := uint64(1); want <= uint64(n); want++ {
		if want == uint64(dropAt)+1 && dropAt > 0 {
			sub.Drop() // the next Next redials under its own context
		}
		next, cancel := context.WithTimeout(ctx, 10*time.Second)
		ev, err := sub.Next(next)
		cancel()
		if err != nil {
			t.Fatalf("event %d: %v (reconnects %d)", want, err, sub.Reconnects())
		}
		if ev.Revision != want {
			t.Fatalf("got revision %d, want %d (reconnects %d)", ev.Revision, want, sub.Reconnects())
		}
	}
	want := uint64(0)
	if dropAt > 0 {
		want = 1
	}
	if r := sub.Reconnects(); r != want {
		t.Fatalf("stream redialed %d times, want %d", r, want)
	}
}

// TestSubscriptionOutlivesClientTimeout pins that an event stream is
// not a request with a deadline: a client whose http.Client.Timeout is
// far shorter than the stream (300ms against 1.2s of events) receives
// every event over the one connection, without the Timeout cutting it
// and forcing redials. Subscribe's context bounds the connect only, so
// ending it once Subscribe returned leaves the stream open too.
func TestSubscriptionOutlivesClientTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ts := sseServer(t, 24, 50*time.Millisecond)
	c := hod.NewClient(ts.URL, hod.WithHTTPClient(&http.Client{Timeout: 300 * time.Millisecond}))
	connect, endConnect := context.WithCancel(ctx)
	sub, err := c.Subscribe(connect, wire.SubscribeRequest{Channels: []string{"cube:p"}})
	endConnect()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	readRevisions(t, ctx, sub, 24, 0)
}

// TestSubscriptionSurvivesEndedNextContext pins that ending the
// context of a Next call that already returned leaves the stream
// alone — also a stream that Next redialed under that context: only a
// context that ends while Next is blocked severs it.
func TestSubscriptionSurvivesEndedNextContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ts := sseServer(t, 200, 0)
	sub, err := hod.NewClient(ts.URL).Subscribe(ctx, wire.SubscribeRequest{Channels: []string{"cube:p"}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	readRevisions(t, ctx, sub, 200, 100)
}
