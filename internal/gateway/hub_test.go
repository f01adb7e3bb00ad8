package gateway

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/pkg/hod/wire"
)

func alertEv(plant string, seqs ...uint64) wire.Event {
	ev := wire.Event{Kind: wire.EventAlert, Plant: plant}
	for _, s := range seqs {
		ev.Alerts = append(ev.Alerts, wire.Alert{Seq: s, Machine: "m", Phase: "p", Sensor: "s", T: int(s)})
		if s > ev.Seq {
			ev.Seq = s
		}
	}
	return ev
}

func TestHubRoutesByChannel(t *testing.T) {
	h := NewHub()
	a := h.Subscribe([]wire.Channel{{Kind: wire.EventAlert, Plant: "p1"}}, nil, 0)
	b := h.Subscribe([]wire.Channel{{Kind: wire.EventAlert, Plant: "p2"}}, nil, 0)
	all := h.Subscribe([]wire.Channel{{Kind: wire.EventAlert, Plant: "*"}}, nil, 0)
	stats := h.Subscribe([]wire.Channel{{Kind: wire.EventStats, Plant: "p1"}}, nil, 0)
	defer h.Close()

	h.Publish(alertEv("p1", 1))
	if got := a.Pending(); got != 1 {
		t.Errorf("a pending = %d", got)
	}
	if got := b.Pending(); got != 0 {
		t.Errorf("b pending = %d (cross-plant leak)", got)
	}
	if got := all.Pending(); got != 1 {
		t.Errorf("wildcard pending = %d", got)
	}
	if got := stats.Pending(); got != 0 {
		t.Errorf("stats pending = %d (cross-kind leak)", got)
	}
}

// TestHubWants pins that Wants answers exactly what Publish would
// deliver to: an exact channel, a wildcard within its tenant scope,
// and nobody once the subscriber closes.
func TestHubWants(t *testing.T) {
	h := NewHub()
	defer h.Close()
	want := func(kind wire.EventKind, plant string, exp bool) {
		t.Helper()
		if got := h.Wants(kind, plant); got != exp {
			t.Errorf("Wants(%s, %s) = %v, want %v", kind, plant, got, exp)
		}
	}
	want(wire.EventStats, "p1", false)
	exact := h.Subscribe([]wire.Channel{{Kind: wire.EventStats, Plant: "p1"}}, nil, 0)
	want(wire.EventStats, "p1", true)
	want(wire.EventStats, "p2", false)
	want(wire.EventAlert, "p1", false)
	scoped := h.Subscribe([]wire.Channel{{Kind: wire.EventAlert, Plant: "*"}}, map[string]bool{"p2": true}, 0)
	want(wire.EventAlert, "p2", true)
	want(wire.EventAlert, "p1", false)
	exact.Close()
	scoped.Close()
	want(wire.EventStats, "p1", false)
	want(wire.EventAlert, "p2", false)
	all := h.Subscribe([]wire.Channel{{Kind: wire.EventCubeDelta, Plant: "*"}}, nil, 0)
	defer all.Close()
	want(wire.EventCubeDelta, "anything", true)
}

func TestHubWildcardRespectsTenantScope(t *testing.T) {
	h := NewHub()
	defer h.Close()
	s := h.Subscribe([]wire.Channel{{Kind: wire.EventAlert, Plant: "*"}}, map[string]bool{"p1": true}, 0)
	h.Publish(alertEv("p1", 1))
	h.Publish(alertEv("p2", 2))
	ev, ok := s.Next(context.Background())
	if !ok || ev.Plant != "p1" {
		t.Fatalf("got %+v %v", ev, ok)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("foreign plant delivered to scoped wildcard: pending=%d", got)
	}
}

func TestSlowConsumerCoalescesAlerts(t *testing.T) {
	h := NewHub()
	defer h.Close()
	s := h.Subscribe([]wire.Channel{{Kind: wire.EventAlert, Plant: "p"}}, nil, 0)
	// Nobody drains: publish far more alerts than the ring holds.
	total := 3 * AlertCoalesceCap
	for i := 1; i <= total; i++ {
		h.Publish(alertEv("p", uint64(i)))
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("pending slots = %d, want 1 (coalesced)", got)
	}
	ev, ok := s.Next(context.Background())
	if !ok {
		t.Fatal("closed")
	}
	if !ev.Coalesced {
		t.Error("trimmed merge not marked Coalesced")
	}
	if len(ev.Alerts) != AlertCoalesceCap {
		t.Fatalf("alerts = %d, want %d", len(ev.Alerts), AlertCoalesceCap)
	}
	// The survivors are exactly the newest AlertCoalesceCap seqs in order.
	for i, a := range ev.Alerts {
		want := uint64(total - AlertCoalesceCap + 1 + i)
		if a.Seq != want {
			t.Fatalf("alert[%d].Seq = %d, want %d", i, a.Seq, want)
		}
	}
	if ev.Seq != uint64(total) {
		t.Errorf("event seq = %d, want %d", ev.Seq, total)
	}
	if co, _ := s.Stats(); co == 0 {
		t.Error("coalesce counter not advanced")
	}
}

func TestSlowConsumerStatsLatestWins(t *testing.T) {
	h := NewHub()
	defer h.Close()
	s := h.Subscribe([]wire.Channel{{Kind: wire.EventStats, Plant: "p"}}, nil, 0)
	for rev := uint64(1); rev <= 10; rev++ {
		h.Publish(wire.Event{Kind: wire.EventStats, Plant: "p", Revision: rev,
			Stats: &wire.StatsResponse{Plant: "p", DataRevision: rev}})
	}
	ev, _ := s.Next(context.Background())
	if ev.Revision != 10 || ev.Stats.DataRevision != 10 || !ev.Coalesced {
		t.Fatalf("got %+v", ev)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("pending = %d after drain", got)
	}
}

func TestQueueCapBoundsDistinctSlots(t *testing.T) {
	h := NewHub()
	defer h.Close()
	s := h.Subscribe([]wire.Channel{{Kind: wire.EventAlert, Plant: "*"}}, nil, 4)
	for i := 0; i < 100; i++ {
		h.Publish(alertEv(fmt.Sprintf("p%d", i), uint64(i+1)))
	}
	if got := s.Pending(); got != 4 {
		t.Fatalf("pending = %d, want cap 4", got)
	}
	if _, dropped := s.Stats(); dropped != 96 {
		t.Fatalf("dropped = %d, want 96", dropped)
	}
}

func TestNextContextAndClose(t *testing.T) {
	h := NewHub()
	s := h.Subscribe([]wire.Channel{{Kind: wire.EventAlert, Plant: "p"}}, nil, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if ev, ok := s.Next(ctx); !ok || ev.Kind != "" {
		t.Fatalf("ctx timeout: got %+v %v, want zero event + ok", ev, ok)
	}
	done := make(chan bool, 1)
	go func() {
		_, ok := s.Next(context.Background())
		done <- ok
	}()
	s.Close()
	if ok := <-done; ok {
		t.Fatal("Next returned ok after Close")
	}
	// Publishing to a closed subscriber is a no-op.
	h.Publish(alertEv("p", 1))
	if got := s.Pending(); got != 0 {
		t.Fatalf("closed subscriber buffered %d", got)
	}
}

func TestPublishConcurrentWithSubscribeRace(t *testing.T) {
	h := NewHub()
	defer h.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
				h.Publish(alertEv("p", uint64(i)))
			}
		}
	}()
	for i := 0; i < 50; i++ {
		s := h.Subscribe([]wire.Channel{{Kind: wire.EventAlert, Plant: "p"}}, nil, 0)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if ev, ok := s.Next(ctx); !ok || ev.Kind != wire.EventAlert {
			cancel()
			t.Fatalf("subscriber %d: got %+v %v", i, ev, ok)
		}
		cancel()
		s.Close()
	}
	close(stop)
	wg.Wait()
}

// sortMergeAlerts is mergeAlerts as it was before the linear merge: a
// stable sort of both batches by seq, then one alert per seq, the
// later copy winning. It is the oracle of the differential test.
func sortMergeAlerts(a, b []wire.Alert) []wire.Alert {
	merged := make([]wire.Alert, 0, len(a)+len(b))
	merged = append(merged, a...)
	merged = append(merged, b...)
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Seq < merged[j].Seq })
	out := merged[:0]
	for _, al := range merged {
		if n := len(out); n > 0 && out[n-1].Seq == al.Seq {
			out[n-1] = al
			continue
		}
		out = append(out, al)
	}
	return out
}

func TestMergeAlertsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	// ascending draws n seqs upward from start, repeating one now and
	// then; T tags every copy so the test sees which one survived.
	ascending := func(list string, start uint64, n int) []wire.Alert {
		out := make([]wire.Alert, n)
		seq := start
		for i := range out {
			if i > 0 && rng.Intn(5) > 0 {
				seq += uint64(1 + rng.Intn(3))
			}
			out[i] = wire.Alert{Seq: seq, Machine: list, T: i}
		}
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		a := ascending("a", uint64(rng.Intn(20)), rng.Intn(30))
		b := ascending("b", uint64(rng.Intn(40)), rng.Intn(30))
		got := mergeAlerts(a, b)
		want := sortMergeAlerts(a, b)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trial %d: merge differs from the stable sort\n   a %v\n   b %v\n got %v\nwant %v", trial, a, b, got, want)
		}
	}
}
