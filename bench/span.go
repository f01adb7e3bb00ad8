package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one client
// operation share Op; Parent is the index of the span that caused this
// one (-1 for a root). Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans into one preallocated slice and writes them
// out only after the run. A nil *tracer is the untraced run: every
// method is a no-op, so call sites need no branches.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   uint64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// nextOp mints the identifier the spans of one operation share.
func (t *tracer) nextOp() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its index (-1 when untraced).
func (t *tracer) begin(name string, op uint64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(idx int32) {
	if t == nil || idx < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[idx].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name string, op uint64, parent int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// selfTimes returns, per span, its duration minus the part of its
// interval its direct children cover. Children are clipped to the
// parent's interval and overlapping children are not counted twice.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[int32(i)]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered := s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// layerTimes folds spans into per-name histograms of duration and of
// self time.
func layerTimes(spans []span) (dur, self map[string]*hist) {
	dur, self = map[string]*hist{}, map[string]*hist{}
	st := selfTimes(spans)
	for i, s := range spans {
		if dur[s.Name] == nil {
			dur[s.Name], self[s.Name] = &hist{}, &hist{}
		}
		dur[s.Name].record(time.Duration(s.End - s.Start))
		self[s.Name].record(time.Duration(st[i]))
	}
	return dur, self
}

// writeTrace dumps the spans of one workload as one JSON document.
func writeTrace(path, workload string, spans []span) error {
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
