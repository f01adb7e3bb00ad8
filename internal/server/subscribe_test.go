package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/plant"
	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

// pushFixture spins up a server (plus options), registers one plantsim
// plant, and returns everything a push test needs. The low alert
// threshold makes the EWMA trackers fire constantly, so the alert ring
// wraps — the interesting regime for coalescing.
type pushFixture struct {
	srv  *Server
	ts   *httptest.Server
	c    *hod.Client
	recs []Record
	id   string
}

func newPushFixture(t *testing.T, opts Options, clientOpts ...hod.ClientOption) *pushFixture {
	t.Helper()
	if opts.AlertThreshold == 0 {
		opts.AlertThreshold = 0.5
	}
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	p, err := plant.Simulate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := &pushFixture{
		srv: srv, ts: ts, id: "push-plant",
		c:    hod.NewClient(ts.URL, clientOpts...),
		recs: machineRecords(p),
	}
	if _, err := f.c.Register(context.Background(), topoFromPlant(f.id, p)); err != nil {
		t.Fatal(err)
	}
	return f
}

// ingestAll uploads every record in batches and waits for the fold
// pipelines to drain.
func (f *pushFixture) ingestAll(t *testing.T, ctx context.Context) {
	t.Helper()
	bs := f.c.BatchStream(f.id, 500)
	for _, r := range f.recs {
		if err := bs.Add(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bs.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	drain, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := f.c.WaitDrained(drain, f.id, uint64(len(f.recs))); err != nil {
		t.Fatal(err)
	}
}

// TestSubscriberConvergesToPolledAlerts is the E2E acceptance: a
// subscriber attached during a plantsim replay receives an alert
// stream whose final coalesced state — the last ring-capacity alerts
// by Seq — is byte-identical to what polling the alerts endpoint
// returns after the drain.
func TestSubscriberConvergesToPolledAlerts(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	f := newPushFixture(t, Options{})
	sub, err := f.c.SubscribeAlerts(ctx, f.id)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Drain the stream concurrently with ingest; the iterator dedups by
	// Seq, so delivered alerts are exactly-once and seq-ordered.
	var mu sync.Mutex
	var delivered []wire.Alert
	drained := make(chan error, 1)
	go func() {
		for {
			ev, err := sub.Next(ctx)
			if err != nil {
				drained <- err
				return
			}
			mu.Lock()
			delivered = append(delivered, ev.Alerts...)
			mu.Unlock()
		}
	}()

	f.ingestAll(t, ctx)
	polled, err := f.c.Alerts(ctx, f.id, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(polled.Alerts) == 0 {
		t.Fatal("fixture produced no alerts; the convergence check is vacuous")
	}
	wantMax := polled.Alerts[len(polled.Alerts)-1].Seq

	// Wait for the push stream to catch up to the polled high-water
	// mark, then compare final states.
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		n := len(delivered)
		var gotMax uint64
		if n > 0 {
			gotMax = delivered[n-1].Seq
		}
		mu.Unlock()
		if gotMax >= wantMax {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("push stream stalled at seq %d, polled ring ends at %d", gotMax, wantMax)
		}
		time.Sleep(10 * time.Millisecond)
	}
	sub.Close()
	if err := <-drained; !errors.Is(err, hod.ErrSubscriptionClosed) && ctx.Err() == nil {
		t.Fatalf("drain goroutine: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(delivered); i++ {
		if delivered[i].Seq <= delivered[i-1].Seq {
			t.Fatalf("delivered alerts not strictly seq-ordered at %d: %d then %d",
				i, delivered[i-1].Seq, delivered[i].Seq)
		}
	}
	if len(delivered) < len(polled.Alerts) {
		t.Fatalf("delivered %d alerts, polled ring holds %d", len(delivered), len(polled.Alerts))
	}
	final := delivered[len(delivered)-len(polled.Alerts):]
	gotJSON, _ := json.Marshal(final)
	wantJSON, _ := json.Marshal(polled.Alerts)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("final coalesced push state differs from polled alerts:\npush:   %.200s...\npolled: %.200s...",
			gotJSON, wantJSON)
	}
}

// stallListener makes a peer that accepts no bytes structural: while
// stalled is write-held, every Write on a connection it accepted blocks
// — what a full socket buffer does to the writer, however large the
// kernel sized the buffers.
type stallListener struct {
	net.Listener
	stalled sync.RWMutex
}

func (l *stallListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &stallConn{Conn: c, l: l}, nil
}

type stallConn struct {
	net.Conn
	l *stallListener
}

func (c *stallConn) Write(p []byte) (int, error) {
	c.l.stalled.RLock()
	defer c.l.stalled.RUnlock()
	return c.Conn.Write(p)
}

// TestStalledSubscriberCoalesces pins the slow-consumer contract end to
// end: a subscriber that accepts nothing during the whole replay does
// not block ingest, and once it resumes it converges to the same final
// ring state — receiving Coalesced events instead of the full history.
// The subscription alone rides a second, stallable listener on the same
// server, so ingest acks and polls keep flowing while its writer is
// stuck.
func TestStalledSubscriberCoalesces(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	f := newPushFixture(t, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := &stallListener{Listener: ln}
	t.Cleanup(f.srv.ServeListener(sl))
	sub, err := hod.NewClient("http://"+ln.Addr().String()).SubscribeAlerts(ctx, f.id)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sl.stalled.Lock()
	resume := sync.OnceFunc(sl.stalled.Unlock)
	defer resume()

	// Stall: no Next calls while the whole trace folds. Ingest must
	// finish regardless — the hub never blocks the fold path.
	f.ingestAll(t, ctx)
	polled, err := f.c.Alerts(ctx, f.id, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(polled.Alerts) < alertRingCap {
		t.Fatalf("fixture raised %d alerts, want a full ring (%d) to exercise trimming",
			len(polled.Alerts), alertRingCap)
	}
	wantMax := polled.Alerts[len(polled.Alerts)-1].Seq

	// Resume. The iterator dedups, so collecting until the high-water
	// mark yields each seq at most once; the server side must have
	// coalesced (its writer sat on one event through thousands more).
	resume()
	var got []wire.Alert
	sawCoalesced := false
	for {
		next, cancelNext := context.WithTimeout(ctx, 30*time.Second)
		ev, err := sub.Next(next)
		cancelNext()
		if err != nil {
			t.Fatalf("resume: %v (got %d alerts so far)", err, len(got))
		}
		if ev.Coalesced {
			sawCoalesced = true
		}
		got = append(got, ev.Alerts...)
		if len(got) > 0 && got[len(got)-1].Seq >= wantMax {
			break
		}
	}
	if !sawCoalesced {
		t.Error("stalled subscriber resumed without any Coalesced event")
	}
	if len(got) < len(polled.Alerts) {
		t.Fatalf("resumed stream delivered %d alerts, ring holds %d", len(got), len(polled.Alerts))
	}
	final := got[len(got)-len(polled.Alerts):]
	gotJSON, _ := json.Marshal(final)
	wantJSON, _ := json.Marshal(polled.Alerts)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("stalled subscriber's final state differs from polled alerts")
	}
}

// TestForeignTenantSubscribeRejected pins the auth contract of the
// push endpoint: the subscription is refused before the stream
// starts, with the typed wire envelope.
func TestForeignTenantSubscribeRejected(t *testing.T) {
	t.Run("sse", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv := New(Options{Tenants: testTenants()})
		ts := httptest.NewServer(srv.Handler())
		defer func() { ts.Close(); srv.Close() }()
		op := hod.NewClient(ts.URL, hod.WithAPIKey("key-op"))
		p, err := plant.Simulate(plant.Config{Seed: 3, Lines: 1, MachinesPerLine: 1, JobsPerMachine: 1, PhaseSamples: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := op.Register(ctx, topoFromPlant("p2", p)); err != nil {
			t.Fatal(err)
		}

		scoped := hod.NewClient(ts.URL, hod.WithAPIKey("key-acme")) // granted p1 only
		_, err = scoped.Subscribe(ctx, wire.SubscribeRequest{Channels: []string{"alerts:p2"}})
		if !errors.Is(err, hod.ErrForbidden) {
			t.Fatalf("foreign-tenant subscribe: err = %v, want ErrForbidden", err)
		}
		var apiErr *hod.APIError
		if !errors.As(err, &apiErr) || apiErr.Code != wire.CodeForbidden || apiErr.Status != 403 {
			t.Fatalf("err = %#v, want typed envelope with code %q", err, wire.CodeForbidden)
		}

		// No key at all in authenticated mode: 401 before the stream.
		anon := hod.NewClient(ts.URL)
		if _, err := anon.Subscribe(ctx, wire.SubscribeRequest{Channels: []string{"alerts:p2"}}); !errors.Is(err, hod.ErrUnauthorized) {
			t.Fatalf("anonymous subscribe: err = %v, want ErrUnauthorized", err)
		}
		// Unknown plant: typed 404, same pre-stream path.
		if _, err := op.Subscribe(ctx, wire.SubscribeRequest{Channels: []string{"alerts:ghost"}}); !errors.Is(err, hod.ErrUnknownPlant) {
			t.Fatalf("unknown-plant subscribe: err = %v, want ErrUnknownPlant", err)
		}
	})
}

// TestConcurrentSubscribersDuringIngest races N mixed-kind
// subscribers against a live replay — the -race suite's gateway
// workout. Every alert subscriber must converge to the polled ring
// state.
func TestConcurrentSubscribersDuringIngest(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	f := newPushFixture(t, Options{})

	const nSubs = 6
	subs := make([]*hod.Subscription, nSubs)
	for i := range subs {
		var (
			sub *hod.Subscription
			err error
		)
		switch i % 3 {
		case 0:
			sub, err = f.c.Subscribe(ctx, wire.SubscribeRequest{Channels: []string{"alerts:" + f.id}})
		case 1:
			sub, err = f.c.Subscribe(ctx, wire.SubscribeRequest{Channels: []string{"alerts:*", "stats:*"}})
		case 2:
			sub, err = f.c.Subscribe(ctx, wire.SubscribeRequest{Channels: []string{"cube:" + f.id, "stats:" + f.id}})
		}
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
		defer sub.Close()
	}

	type result struct {
		alerts []wire.Alert
		stats  int
		cubes  int
		err    error
	}
	results := make([]result, nSubs)
	var mu sync.Mutex // the catch-up poll below reads results while the readers append
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub *hod.Subscription) {
			defer wg.Done()
			for {
				ev, err := sub.Next(ctx)
				if err != nil {
					if !errors.Is(err, hod.ErrSubscriptionClosed) && ctx.Err() == nil {
						results[i].err = err
					}
					return
				}
				mu.Lock()
				switch ev.Kind {
				case wire.EventAlert:
					results[i].alerts = append(results[i].alerts, ev.Alerts...)
				case wire.EventStats:
					results[i].stats++
				case wire.EventCubeDelta:
					results[i].cubes++
				}
				mu.Unlock()
			}
		}(i, sub)
	}

	f.ingestAll(t, ctx)
	polled, err := f.c.Alerts(ctx, f.id, -1)
	if err != nil {
		t.Fatal(err)
	}
	wantMax := polled.Alerts[len(polled.Alerts)-1].Seq

	// Give the streams a moment to catch up, then close everything.
	deadline := time.Now().Add(30 * time.Second)
	for {
		behind := false
		mu.Lock()
		for i := range results {
			if i%3 == 2 {
				continue // no alert channel
			}
			if n := len(results[i].alerts); n == 0 || results[i].alerts[n-1].Seq < wantMax {
				behind = true
			}
		}
		mu.Unlock()
		if !behind || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, sub := range subs {
		sub.Close()
	}
	wg.Wait()

	wantJSON, _ := json.Marshal(polled.Alerts)
	for i, res := range results {
		if res.err != nil {
			t.Errorf("subscriber %d: %v", i, res.err)
			continue
		}
		switch i % 3 {
		case 0, 1:
			if len(res.alerts) < len(polled.Alerts) {
				t.Errorf("subscriber %d: delivered %d alerts, ring holds %d", i, len(res.alerts), len(polled.Alerts))
				continue
			}
			final := res.alerts[len(res.alerts)-len(polled.Alerts):]
			gotJSON, _ := json.Marshal(final)
			if string(gotJSON) != string(wantJSON) {
				t.Errorf("subscriber %d: final alert state differs from polled ring", i)
			}
		case 2:
			if res.stats == 0 || res.cubes == 0 {
				t.Errorf("subscriber %d: stats=%d cubes=%d, want both > 0", i, res.stats, res.cubes)
			}
		}
	}
}

// TestSubscriptionReconnectResumes drops the transport mid-stream and
// checks the iterator resumes from its cursor without replaying or
// losing alerts.
func TestSubscriptionReconnectResumes(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	f := newPushFixture(t, Options{})
	sub, err := f.c.SubscribeAlerts(ctx, f.id)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	f.ingestAll(t, ctx)
	polled, err := f.c.Alerts(ctx, f.id, -1)
	if err != nil {
		t.Fatal(err)
	}
	wantMax := polled.Alerts[len(polled.Alerts)-1].Seq

	var got []wire.Alert
	dropped := false
	for {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		got = append(got, ev.Alerts...)
		if !dropped && len(got) > 0 {
			sub.Drop() // sever mid-stream; the next call must reconnect
			dropped = true
		}
		if n := len(got); n > 0 && got[n-1].Seq >= wantMax {
			break
		}
	}
	if sub.Reconnects() == 0 {
		t.Error("transport was dropped but the subscription never reconnected")
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("resume replayed or reordered: seq %d then %d", got[i-1].Seq, got[i].Seq)
		}
	}
	final := got[len(got)-len(polled.Alerts):]
	gotJSON, _ := json.Marshal(final)
	wantJSON, _ := json.Marshal(polled.Alerts)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("post-reconnect final state differs from polled alerts")
	}
}

// deadlineRecorder is a streaming ResponseWriter that checks the
// stalled-peer guard: every Write and Flush must follow a
// SetWriteDeadline of pushWriteTimeout made since the previous Write.
// http.ResponseController reaches SetWriteDeadline and Flush through
// the middleware chain's Unwrap.
type deadlineRecorder struct {
	header http.Header

	mu         sync.Mutex
	armed      bool
	unguarded  []string // writes and flushes made without a fresh deadline
	badWindow  []time.Duration
	events     int
	heartbeats int
}

func newDeadlineRecorder() *deadlineRecorder { return &deadlineRecorder{header: http.Header{}} }

func (d *deadlineRecorder) Header() http.Header { return d.header }
func (d *deadlineRecorder) WriteHeader(int)     {}

func (d *deadlineRecorder) SetWriteDeadline(t time.Time) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	// The handler computes time.Now().Add(pushWriteTimeout) just before
	// this call; anything outside a second's slack is another window.
	if w := time.Until(t); w > pushWriteTimeout || w < pushWriteTimeout-time.Second {
		d.badWindow = append(d.badWindow, w)
	}
	d.armed = true
	return nil
}

func (d *deadlineRecorder) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.armed {
		d.unguarded = append(d.unguarded, fmt.Sprintf("write %.20q", p))
	}
	d.armed = false
	switch {
	case strings.HasPrefix(string(p), "event: "):
		d.events++
	case string(p) == ": hb\n\n":
		d.heartbeats++
	}
	return len(p), nil
}

// Flush follows its frame's Write under the same deadline; the header
// flush comes before any Write and needs one of its own.
func (d *deadlineRecorder) Flush() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.armed && d.events+d.heartbeats == 0 {
		d.unguarded = append(d.unguarded, "header flush")
	}
}

func (d *deadlineRecorder) counts() (events, heartbeats int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.events, d.heartbeats
}

func (d *deadlineRecorder) check(t *testing.T) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.unguarded) > 0 {
		t.Errorf("%d writes without a fresh write deadline, first: %s", len(d.unguarded), d.unguarded[0])
	}
	if len(d.badWindow) > 0 {
		t.Errorf("write deadline %v ahead, want %v", d.badWindow[0], pushWriteTimeout)
	}
}

// waitFor polls cond for up to 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestEventStreamWriteDeadlines pins the stalled-peer guard of
// GET /v1/events: the handler sets a write deadline of pushWriteTimeout
// before the header flush and before every event and heartbeat write,
// so a peer that stops reading is cut off instead of pinning the
// stream's goroutine. No real deadline has to expire: the recorder
// checks each deadline as it is set.
func TestEventStreamWriteDeadlines(t *testing.T) {
	s := New(Options{})
	defer s.Close()

	// Events, through the whole middleware chain.
	rec := newDeadlineRecorder()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest(http.MethodGet, "/v1/events?channel=cube:*", nil).WithContext(ctx)
		s.Handler().ServeHTTP(rec, req)
	}()
	rev := uint64(0)
	waitFor(t, "three events", func() bool {
		rev++ // publish until the subscription is in place and three arrived
		s.hub.Publish(wire.Event{Kind: wire.EventCubeDelta, Plant: "p", Revision: rev})
		ev, _ := rec.counts()
		return ev >= 3
	})
	cancel()
	<-done
	rec.check(t)
	if ct := rec.header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}

	// Heartbeats, on a short interval instead of heartbeatInterval.
	hub := gateway.NewHub()
	defer hub.Close()
	sub := hub.Subscribe([]wire.Channel{{Kind: wire.EventStats, Plant: "p"}}, nil, 0)
	rec = newDeadlineRecorder()
	rec.armed = true // streamEvents starts after handleEvents' header flush
	ctx, cancel = context.WithCancel(context.Background())
	done = make(chan struct{})
	go func() { defer close(done); streamEvents(ctx, rec, sub, time.Millisecond) }()
	waitFor(t, "three heartbeats", func() bool { _, hb := rec.counts(); return hb >= 3 })
	hub.Publish(wire.Event{Kind: wire.EventStats, Plant: "p", Revision: 1, Stats: &wire.StatsResponse{}})
	waitFor(t, "an event between heartbeats", func() bool { ev, _ := rec.counts(); return ev >= 1 })
	cancel()
	<-done
	rec.check(t)
}

// TestShutdownEndsPushStreams pins graceful shutdown with a subscriber
// attached. http.Server.Shutdown cancels no request context, so an
// open event stream would hold it for its whole budget unless the
// server's HTTPServer ended push streams as soon as Shutdown begins.
// An ingest request in flight must still drain: Shutdown waits for it,
// and it is admitted.
func TestShutdownEndsPushStreams(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv := New(Options{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := srv.HTTPServer("")
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	c := hod.NewClient(base)
	p, err := plant.Simulate(plant.Config{Seed: 3, Lines: 1, MachinesPerLine: 1, JobsPerMachine: 2, PhaseSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, topoFromPlant("p", p)); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(ctx, wire.SubscribeRequest{Channels: []string{"stats:p"}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// An ingest whose body is still arriving when Shutdown begins.
	body, err := wire.EncodeNDJSON(machineRecords(p))
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/plants/p/ingest", pr)
	if err != nil {
		t.Fatal(err)
	}
	status := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	if _, err := pw.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}

	const budget = 5 * time.Second
	sctx, scancel := context.WithTimeout(context.Background(), budget)
	defer scancel()
	start := time.Now()
	shut := make(chan error, 1)
	go func() { shut <- hs.Shutdown(sctx) }()
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) while an ingest body was still arriving", err)
	case <-time.After(200 * time.Millisecond):
	}
	if _, err := pw.Write(body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if code := <-status; code != http.StatusAccepted {
		t.Fatalf("in-flight ingest answered %d, want 202", code)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown with an open subscriber: %v after %v", err, time.Since(start))
	}
	if took := time.Since(start); took > budget/2 {
		t.Fatalf("Shutdown took %v of its %v budget", took, budget)
	}
}
