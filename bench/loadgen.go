package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// openLoop issues n operations on a fixed schedule, operation i being
// due at start + i/rate whatever the server does. The workers claim
// operations in order; a claimed operation sleeps until it is due and
// then runs fn, which must time itself from due, not from when it was
// called: when the system under test stalls, the operations queued
// behind the stall start late and their wait is part of their latency.
// The returned histogram is how late each operation started — the
// generator's own validity check (loadgen.late_p99_ms).
func openLoop(start time.Time, rate float64, n, workers int, fn func(worker, i int, due time.Time)) *hist {
	interval := float64(time.Second) / rate
	var next atomic.Int64
	late := make([]hist, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late[w].record(time.Since(due))
				fn(w, i, due)
			}
		}(w)
	}
	wg.Wait()
	all := &hist{}
	for i := range late {
		all.merge(&late[i])
	}
	return all
}

// closedLoop runs fn on `workers` goroutines until each returns: every
// worker sends its next request only after the previous one completed.
func closedLoop(workers int, fn func(worker int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// cpuSeconds is the process's user+system CPU time so far. It prices a
// phase independently of fsync waits and of time stolen by neighbours.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
