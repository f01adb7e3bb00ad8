package hod

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/hod/wire"
)

// Subscription is a typed iterator over the server's live push stream,
// GET /v1/events over Server-Sent Events. Next blocks for the next
// event; a broken stream reconnects automatically, resuming alerts
// from the highest delivered Alert.Seq and suppressing cube_delta
// replays at or below the highest delivered revision — so across any
// number of reconnects, delivery is effectively exactly-once for
// alerts (the at-least-once wire stream deduplicated by Seq) and
// monotone for revisions. Stats snapshots always flow.
//
// Next must be called from one goroutine at a time; Close and Drop are
// safe to call concurrently with it.
type Subscription struct {
	c        *Client
	channels []string
	wait     time.Duration

	// Resume cursors, owned by the Next goroutine.
	afterSeq map[string]uint64
	afterRev map[string]uint64

	reconnects atomic.Uint64

	mu        sync.Mutex
	closed    bool
	connected bool   // a transport was established at least once
	end       func() // ends the open stream
	scan      *bufio.Reader
}

// SubscribeOption tunes a Subscription at construction time.
type SubscribeOption func(*Subscription)

// WithReconnectWait sets the pause before a broken transport is
// redialed (default 200ms).
func WithReconnectWait(d time.Duration) SubscribeOption {
	return func(s *Subscription) { s.wait = d }
}

// Subscribe opens a live push subscription for the request's channels
// ("alerts:plant-a", "cube:*", "stats:plant-b"; see wire.ParseChannel
// for the grammar). The initial connect happens here, so a rejected
// subscription — bad channel (ErrBadRequest), unknown plant
// (ErrUnknownPlant), out-of-grant plant (ErrForbidden) — surfaces
// immediately as a typed API error. The request's AfterSeq/AfterRev
// seed the resume cursors.
func (c *Client) Subscribe(ctx context.Context, req wire.SubscribeRequest, opts ...SubscribeOption) (*Subscription, error) {
	s := &Subscription{
		c:        c,
		channels: append([]string(nil), req.Channels...),
		wait:     200 * time.Millisecond,
		afterSeq: map[string]uint64{},
		afterRev: map[string]uint64{},
	}
	for p, n := range req.AfterSeq {
		s.afterSeq[p] = n
	}
	for p, n := range req.AfterRev {
		s.afterRev[p] = n
	}
	for _, opt := range opts {
		opt(s)
	}
	if err := s.connect(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// SubscribeAlerts subscribes to the alert stream of the given plants
// (none = every visible plant via the wildcard channel).
func (c *Client) SubscribeAlerts(ctx context.Context, plants ...string) (*Subscription, error) {
	return c.Subscribe(ctx, wire.SubscribeRequest{Channels: kindChannels(wire.EventAlert, plants)})
}

// SubscribeCube subscribes to cube_delta notifications — "the cube
// advanced to revision R; re-query what you care about".
func (c *Client) SubscribeCube(ctx context.Context, plants ...string) (*Subscription, error) {
	return c.Subscribe(ctx, wire.SubscribeRequest{Channels: kindChannels(wire.EventCubeDelta, plants)})
}

// SubscribeStats subscribes to per-fold-batch stats snapshots.
func (c *Client) SubscribeStats(ctx context.Context, plants ...string) (*Subscription, error) {
	return c.Subscribe(ctx, wire.SubscribeRequest{Channels: kindChannels(wire.EventStats, plants)})
}

func kindChannels(kind wire.EventKind, plants []string) []string {
	if len(plants) == 0 {
		return []string{wire.Channel{Kind: kind, Plant: "*"}.String()}
	}
	chans := make([]string, 0, len(plants))
	for _, p := range plants {
		chans = append(chans, wire.Channel{Kind: kind, Plant: p}.String())
	}
	return chans
}

// Reconnects reports how many times the subscription redialed after a
// broken transport.
func (s *Subscription) Reconnects() uint64 { return s.reconnects.Load() }

// Close tears the subscription down; a concurrent or later Next
// returns ErrSubscriptionClosed.
func (s *Subscription) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.dropTransport()
	return nil
}

// Drop severs the current transport without closing the subscription —
// the next Next call reconnects and resumes. A fault hook for tests
// and fault-injection scenarios.
func (s *Subscription) Drop() { s.dropTransport() }

func (s *Subscription) dropTransport() {
	s.mu.Lock()
	end := s.end
	s.end, s.scan = nil, nil
	s.mu.Unlock()
	if end != nil {
		end()
	}
}

func (s *Subscription) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// resumeQuery renders the subscription request at the current resume
// cursors.
func (s *Subscription) resumeQuery() string {
	req := wire.SubscribeRequest{Channels: s.channels}
	if len(s.afterSeq) > 0 {
		req.AfterSeq = s.afterSeq
	}
	if len(s.afterRev) > 0 {
		req.AfterRev = s.afterRev
	}
	return req.Encode().Encode()
}

// connect opens the event stream. A request rejected with an HTTP
// error becomes a typed *APIError (terminal — reconnecting cannot fix
// a 401/403/404). ctx bounds the connect only: an open stream lives
// until Close, Drop or a broken connection. It is also exempt from the
// whole-request Timeout of the caller's http.Client, which would
// otherwise cut it and force a redial every Timeout.
func (s *Subscription) connect(ctx context.Context) error {
	if s.isClosed() {
		return ErrSubscriptionClosed
	}
	streamCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	connecting := context.AfterFunc(ctx, cancel)
	req, err := http.NewRequestWithContext(streamCtx, http.MethodGet, s.c.base+"/v1/events?"+s.resumeQuery(), nil)
	if err != nil {
		cancel()
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	s.c.authorize(req.Header)
	hc := *s.c.hc
	hc.Timeout = 0
	resp, err := hc.Do(req)
	if !connecting() { // ctx ended during the connect, and cancel ran
		if err == nil {
			resp.Body.Close()
		}
		return ctx.Err()
	}
	if err != nil {
		cancel()
		return err
	}
	end := func() { cancel(); resp.Body.Close() }
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		end()
		return apiError(resp.StatusCode, body)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		end()
		return ErrSubscriptionClosed
	}
	s.end = end
	s.scan = bufio.NewReader(resp.Body)
	if s.connected {
		s.reconnects.Add(1)
	}
	s.connected = true
	return nil
}

// Next returns the next event, transparently reconnecting and resuming
// after transport failures. It returns ErrSubscriptionClosed after
// Close, the context error when ctx ends, and a typed *APIError when a
// reconnect is rejected by the server.
func (s *Subscription) Next(ctx context.Context) (wire.Event, error) {
	for {
		if err := ctx.Err(); err != nil {
			return wire.Event{}, err
		}
		if s.isClosed() {
			return wire.Event{}, ErrSubscriptionClosed
		}
		s.mu.Lock()
		connected := s.scan != nil
		s.mu.Unlock()
		if !connected {
			if err := s.connect(ctx); err != nil {
				return wire.Event{}, err
			}
		}
		ev, err := s.read(ctx)
		if err != nil {
			s.dropTransport()
			switch {
			case s.isClosed():
				return wire.Event{}, ErrSubscriptionClosed
			case ctx.Err() != nil:
				return wire.Event{}, ctx.Err()
			}
			if err := sleepCtx(ctx, s.wait); err != nil {
				return wire.Event{}, err
			}
			continue
		}
		if out, keep := s.filter(ev); keep {
			return out, nil
		}
	}
}

// read blocks for one decoded event from the current stream. The
// context is honoured by severing the stream — a blocked body read
// only unblocks on connection death. Once read returns, a later end of
// ctx leaves the stream alone.
func (s *Subscription) read(ctx context.Context) (wire.Event, error) {
	stop := context.AfterFunc(ctx, s.dropTransport)
	defer stop()
	s.mu.Lock()
	scan := s.scan
	s.mu.Unlock()
	if scan == nil {
		return wire.Event{}, fmt.Errorf("hod: subscription transport gone")
	}
	return readSSE(scan)
}

// readSSE parses one "event:/data:" frame, skipping ": hb" comment
// heartbeats.
func readSSE(br *bufio.Reader) (wire.Event, error) {
	var data strings.Builder
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return wire.Event{}, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		case line == "" && data.Len() > 0:
			var ev wire.Event
			if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
				return wire.Event{}, fmt.Errorf("hod: bad push event: %w", err)
			}
			return ev, nil
		default:
			// comment heartbeat, "event:" name line, or separator
			// before any data — all carry nothing the JSON lacks.
		}
	}
}

// filter advances the resume cursors and drops what the client already
// saw: alerts at or below the plant's seq cursor (at-least-once wire
// stream, exactly-once iterator), and cube_delta at or below the
// revision cursor. Stats always pass (counters move without the
// revision advancing).
func (s *Subscription) filter(ev wire.Event) (wire.Event, bool) {
	switch ev.Kind {
	case wire.EventAlert:
		cursor := s.afterSeq[ev.Plant]
		fresh := ev.Alerts[:0:0]
		for _, a := range ev.Alerts {
			if a.Seq > cursor {
				fresh = append(fresh, a)
			}
		}
		if len(fresh) == 0 {
			return wire.Event{}, false
		}
		ev.Alerts = fresh
		ev.Seq = fresh[len(fresh)-1].Seq
		s.afterSeq[ev.Plant] = ev.Seq
		return ev, true
	case wire.EventCubeDelta:
		if ev.Revision <= s.afterRev[ev.Plant] {
			return wire.Event{}, false
		}
		s.afterRev[ev.Plant] = ev.Revision
		return ev, true
	default:
		return ev, true
	}
}
