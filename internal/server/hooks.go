package server

import (
	"net"
	"sync/atomic"
)

// This file holds the deterministic fault hooks the scenario engine
// (internal/scenario) and the crash-recovery tests drive: a kill
// switch that abandons the process state the way kill -9 would, and a
// listener wrapper that injects connection resets at scheduled points.

// Kill abandons the whole server the way a crash would: queued batches
// are dropped unfolded, no final snapshot is written, WALs are closed
// as-is. Recovery must come from the data dir alone (Open on a fresh
// Server). It is a test/scenario hook — production shutdown is Close,
// which drains.
func (s *Server) Kill() {
	s.closed.Store(true)
	s.stopAllTailers()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, ps := range s.plants {
		//hod:allow(lockorder) crash simulation: abandoning plant goroutines under the fleet read lock is the point, and closed is already set so no admit path contends
		ps.kill()
	}
}

// FaultListener wraps a net.Listener with a deterministic
// connection-reset injector: each armed drop closes exactly one
// accepted connection immediately (with SO_LINGER zeroed, so TCP
// clients observe a hard reset rather than a graceful close). The
// scenario engine arms it between batches to simulate a flaky network
// path in front of an otherwise healthy server.
type FaultListener struct {
	net.Listener
	armed   atomic.Int64
	dropped atomic.Uint64
}

// NewFaultListener wraps ln. Pass the result to ServeListener.
func NewFaultListener(ln net.Listener) *FaultListener {
	return &FaultListener{Listener: ln}
}

// DropNext arms the listener to reset the next n accepted connections.
// Arming is cumulative and safe for concurrent use.
func (l *FaultListener) DropNext(n int) {
	if n > 0 {
		l.armed.Add(int64(n))
	}
}

// Dropped reports how many connections were reset so far.
func (l *FaultListener) Dropped() uint64 { return l.dropped.Load() }

// Accept accepts from the wrapped listener, consuming one armed drop
// per connection until the budget is spent.
func (l *FaultListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if !l.takeDrop() {
			return c, nil
		}
		// Counted before the close: the client may act on the reset the
		// moment it is sent, and must find it in Dropped().
		l.dropped.Add(1)
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetLinger(0) // RST, not FIN: clients see "connection reset"
		}
		_ = c.Close()
	}
}

func (l *FaultListener) takeDrop() bool {
	for {
		n := l.armed.Load()
		if n <= 0 {
			return false
		}
		if l.armed.CompareAndSwap(n, n-1) {
			return true
		}
	}
}
