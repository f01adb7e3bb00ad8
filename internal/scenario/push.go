package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

// pushWatcher is the live subscriber a "subscribe" scenario attaches to
// the victim: one alerts:* subscription through the push gateway, read
// by a single consumer goroutine. Faults act on it mid-replay —
// slow_consumer pauses the consumer (the server must coalesce, never
// block ingest), push_disconnect severs the transport (the subscription
// must redial and resume from its cursor) — and the verify phase
// checks the delivered stream converges to the polled alerts ring.
type pushWatcher struct {
	client *hod.Client
	sub    *hod.Subscription
	cancel context.CancelFunc
	done   chan struct{}

	pauseMu  sync.Mutex
	paused   bool
	resumeCh chan struct{}

	mu        sync.Mutex
	delivered map[string][]wire.Alert
	events    uint64
	coalesced uint64
}

// startWatch subscribes to alerts:* on the current generation and
// starts the consumer loop. Called before any plant registers — the
// wildcard channel picks up plants as they appear.
func (h *harness) startWatch(ctx context.Context) error {
	w := &pushWatcher{
		client:    hod.NewClient(h.baseURL),
		done:      make(chan struct{}),
		delivered: map[string][]wire.Alert{},
	}
	sub, err := w.client.Subscribe(ctx, wire.SubscribeRequest{Channels: []string{"alerts:*"}},
		hod.WithReconnectWait(50*time.Millisecond))
	if err != nil {
		return err
	}
	w.sub = sub
	wctx, cancel := context.WithCancel(ctx)
	w.cancel = cancel
	go w.loop(wctx)
	h.watch = w
	return nil
}

// loop is the consumer: gate (the slow_consumer stall point), read,
// record. Redial failures are retried — the subscription stays usable
// after a Next error, and a severed transport is the point of
// push_disconnect.
func (w *pushWatcher) loop(ctx context.Context) {
	defer close(w.done)
	for {
		if !w.gate(ctx) {
			return
		}
		ev, err := w.sub.Next(ctx)
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, hod.ErrSubscriptionClosed) {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(50 * time.Millisecond):
			}
			continue
		}
		w.record(ev)
	}
}

// gate blocks while the watcher is paused; false means the context
// ended first.
func (w *pushWatcher) gate(ctx context.Context) bool {
	for {
		w.pauseMu.Lock()
		paused, ch := w.paused, w.resumeCh
		w.pauseMu.Unlock()
		if !paused {
			return ctx.Err() == nil
		}
		select {
		case <-ctx.Done():
			return false
		case <-ch:
		}
	}
}

// pause is the slow_consumer fault: the consumer stops reading (events
// pile up in the server-side queue and coalesce) until resume.
func (w *pushWatcher) pause() {
	w.pauseMu.Lock()
	if !w.paused {
		w.paused = true
		w.resumeCh = make(chan struct{})
	}
	w.pauseMu.Unlock()
}

func (w *pushWatcher) resume() {
	w.pauseMu.Lock()
	if w.paused {
		w.paused = false
		close(w.resumeCh)
	}
	w.pauseMu.Unlock()
}

// drop is the push_disconnect fault: sever the transport out from under
// the consumer; the next read redials and resumes.
func (w *pushWatcher) drop() { w.sub.Drop() }

func (w *pushWatcher) record(ev wire.Event) {
	if ev.Kind != wire.EventAlert {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.events++
	if ev.Coalesced {
		w.coalesced++
	}
	w.delivered[ev.Plant] = append(w.delivered[ev.Plant], ev.Alerts...)
}

// maxSeq is the watcher's per-plant high-water mark. The iterator
// delivers strictly seq-ordered, so the last alert carries it.
func (w *pushWatcher) maxSeq(plant string) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if d := w.delivered[plant]; len(d) > 0 {
		return d[len(d)-1].Seq
	}
	return 0
}

func (w *pushWatcher) alertsFor(plant string) []wire.Alert {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]wire.Alert(nil), w.delivered[plant]...)
}

func (w *pushWatcher) counts() (events, coalesced uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.events, w.coalesced
}

func (w *pushWatcher) close() {
	w.resume()
	w.cancel()
	w.sub.Close()
	<-w.done
}

// verifyPush is the push-side verify phase: resume a stalled watcher,
// wait (bounded by the drain timeout) for the delivered stream to reach
// the polled ring's high-water mark, then require the final coalesced
// state — the last ring-capacity alerts by seq — to be byte-identical
// to GET /v1/plants/{id}/alerts. Fault-specific invariants ride along:
// a stalled subscriber must have seen a Coalesced event, a severed one
// must have redialed.
func (r *Runner) verifyPush(ctx context.Context, h *harness, traces []*plantTrace, drainTimeout time.Duration, res *Result) {
	w := h.watch
	if w == nil {
		return
	}
	w.pauseMu.Lock()
	wasStalled := w.paused
	w.pauseMu.Unlock()
	if wasStalled {
		// A consumer stalled this long would have been torn down by the
		// server's write timeout; model the catch-up as a redial, so the
		// backlog arrives as the ring's coalesced seed instead of
		// trickling out of kernel socket buffers.
		w.sub.Drop()
	}
	w.resume()
	httpc := newQueryClient()
	for _, tr := range traces {
		id := tr.spec.ID
		name := "push_converges/" + id
		body, err := fetch(httpc, h.baseURL, id, "/alerts?limit=0")
		if err != nil {
			res.check(name, false, err.Error())
			continue
		}
		var polled wire.AlertsResponse
		if err := json.Unmarshal(body, &polled); err != nil {
			res.check(name, false, "bad alerts body: "+err.Error())
			continue
		}
		if len(polled.Alerts) == 0 {
			// Nothing to converge to; pass only if the push stream saw
			// nothing either.
			res.check(name, w.maxSeq(id) == 0, "push stream delivered alerts the ring never held")
			continue
		}
		wantMax := polled.Alerts[len(polled.Alerts)-1].Seq
		deadline := time.Now().Add(drainTimeout)
		for w.maxSeq(id) < wantMax && ctx.Err() == nil && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		got := w.alertsFor(id)
		ordered := true
		for i := 1; i < len(got); i++ {
			if got[i].Seq <= got[i-1].Seq {
				ordered = false
				res.check("push_seq_ordered/"+id, false, fmt.Sprintf(
					"delivered seq %d then %d at %d — replayed or reordered", got[i-1].Seq, got[i].Seq, i))
				break
			}
		}
		if ordered {
			res.check("push_seq_ordered/"+id, true, "")
		}
		if len(got) < len(polled.Alerts) || got[len(got)-1].Seq < wantMax {
			res.check(name, false, fmt.Sprintf(
				"push stream ends at seq %d with %d alerts; polled ring ends at seq %d with %d",
				w.maxSeq(id), len(got), wantMax, len(polled.Alerts)))
			continue
		}
		final := got[len(got)-len(polled.Alerts):]
		gotJSON, _ := json.Marshal(final)
		wantJSON, _ := json.Marshal(polled.Alerts)
		res.check(name, bytes.Equal(gotJSON, wantJSON), fmt.Sprintf(
			"final %d pushed alerts differ from the polled ring\npush:   %.256s\npolled: %.256s",
			len(polled.Alerts), gotJSON, wantJSON))
	}
	if res.Injected[KindSlowConsumer] > 0 {
		_, coalesced := w.counts()
		res.check("push_coalesced", coalesced > 0,
			"stalled subscriber resumed without any coalesced event")
	}
	if res.Injected[KindPushDisconnect] > 0 {
		res.check("push_reconnected", w.sub.Reconnects() > 0,
			"transport was severed but the subscription never redialed")
	}
	res.PushEvents, res.PushCoalesced = w.counts()
	res.PushReconnects = w.sub.Reconnects()
}
