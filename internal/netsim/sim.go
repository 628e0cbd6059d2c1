// Package netsim is a deterministic discrete-event network simulator: the
// lab's replacement for the paper's Mininet topology. It provides a virtual
// clock, hosts with raw-packet send/receive, links with latency and loss,
// and routers that forward IPv4 datagrams, decrement TTL, emit ICMP errors,
// and expose inline taps where the censorship and surveillance middleboxes
// attach (the two Snort instances of Figure 1).
//
// Everything runs in virtual time from a single goroutine: tests and
// benchmarks are exactly reproducible for a given seed.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"safemeasure/internal/telemetry"
)

// event is a scheduled callback or, on the hot path, a link delivery: when
// port is non-nil the event delivers raw to port's node without a per-packet
// closure. Events are recycled through the Sim's freelist, so the steady
// state of a busy simulation allocates no event at all.
type event struct {
	at   time.Duration
	seq  uint64
	fn   func()
	port *Port
	raw  []byte
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq). The
// ordering ties virtual time to scheduling order, so equal-time events run
// FIFO and every run is reproducible. It deliberately avoids container/heap:
// the interface-dispatched Less/Swap calls showed up as ~10% of campaign CPU.
type eventHeap []*event

// before reports whether a sorts ahead of b in the event queue.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev *event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *eventHeap) pop() *event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	i := 0
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && q[r].before(q[kid]) {
			kid = r
		}
		if !q[kid].before(q[i]) {
			break
		}
		q[i], q[kid] = q[kid], q[i]
		i = kid
	}
	*h = q
	return top
}

// Sim owns the virtual clock and event queue.
type Sim struct {
	now   time.Duration
	queue eventHeap
	seq   uint64
	rng   *rand.Rand
	free  []*event // recycled events (single-goroutine, so no locking)

	// MaxEvents bounds a single Run call as a runaway-loop backstop.
	MaxEvents int

	// Tel, when set, receives hot-path metrics from components built on
	// this simulator (router forwarding, taps). Set it before constructing
	// routers — they resolve their counter handles once, at creation. Nil
	// keeps the zero-telemetry fast path.
	Tel *telemetry.Registry
	// Trace, when set, receives packet-path events stamped with this
	// simulator's virtual clock. Nil disables tracing.
	Trace *telemetry.Tracer
}

// NewSim creates a simulator with a deterministic RNG (see NewRand).
func NewSim(seed int64) *Sim {
	return &Sim{rng: NewRand(seed), MaxEvents: 10_000_000}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's RNG (used for link loss and jitter).
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Schedule runs fn after delay of virtual time. A negative delay is
// clamped to zero.
func (s *Sim) Schedule(delay time.Duration, fn func()) {
	ev := s.newEvent(delay)
	ev.fn = fn
	s.queue.push(ev)
}

// scheduleDelivery enqueues a closure-free link delivery (see event).
func (s *Sim) scheduleDelivery(delay time.Duration, port *Port, raw []byte) {
	ev := s.newEvent(delay)
	ev.port, ev.raw = port, raw
	s.queue.push(ev)
}

func (s *Sim) newEvent(delay time.Duration) *event {
	if delay < 0 {
		delay = 0
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		ev = new(event)
	}
	s.seq++
	ev.at = s.now + delay
	ev.seq = s.seq
	return ev
}

// Run processes events until the queue drains and returns how many ran.
// It panics if MaxEvents is exceeded, which indicates a packet loop.
func (s *Sim) Run() int {
	return s.runWhile(func() bool { return true })
}

// RunFor processes events until the queue drains or virtual time advances
// by d, whichever comes first.
func (s *Sim) RunFor(d time.Duration) int {
	deadline := s.now + d
	n := s.runWhile(func() bool { return s.queue[0].at <= deadline })
	if s.now < deadline {
		s.now = deadline
	}
	return n
}

func (s *Sim) runWhile(cond func() bool) int {
	n := 0
	for len(s.queue) > 0 && cond() {
		ev := s.queue.pop()
		if ev.at > s.now {
			s.now = ev.at
		}
		if ev.port != nil {
			ev.port.link.Delivered++
			ev.port.node.DeliverIP(ev.port.idx, ev.raw)
		} else {
			ev.fn()
		}
		// Recycle: the event is unreachable once run (Pop dropped the heap's
		// reference); clear its pointers so recycled slots retain nothing.
		ev.fn, ev.port, ev.raw = nil, nil, nil
		s.free = append(s.free, ev)
		n++
		if n > s.MaxEvents {
			panic(fmt.Sprintf("netsim: exceeded %d events; packet loop?", s.MaxEvents))
		}
	}
	return n
}

// Pending reports whether any events remain queued.
func (s *Sim) Pending() bool { return len(s.queue) > 0 }
