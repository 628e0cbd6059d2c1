package measured

import (
	"context"
	"fmt"
	"time"

	"safemeasure/internal/archival"
	"safemeasure/internal/campaign"
)

// tokenBucket is the classic per-client limiter: one token per request,
// refilled at rate tokens/second up to burst. Methods run under the
// service mutex.
type tokenBucket struct {
	tokens float64
	last   time.Time
	rate   float64
	burst  float64
}

// take spends one token if available.
func (b *tokenBucket) take(now time.Time) bool {
	if b.rate <= 0 {
		return true // limiting disabled
	}
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// clientState is everything the service tracks per client: its admission
// queue (the fairness unit), its token bucket, and how many of its
// requests are currently streaming.
type clientState struct {
	id     string
	queue  []*flight
	bucket tokenBucket
	active int
}

// clientLocked returns (creating if needed) the client's state; the caller
// holds s.mu.
func (s *Service) clientLocked(id string, now time.Time) *clientState {
	c, ok := s.clients[id]
	if !ok {
		if len(s.clients) >= maxClients {
			s.pruneLocked()
		}
		c = &clientState{id: id,
			bucket: tokenBucket{tokens: s.burst, last: now, rate: s.rate, burst: s.burst}}
		s.clients[id] = c
		s.ring = append(s.ring, c)
	}
	return c
}

// pruneLocked drops idle clients (no open requests, empty queue) and
// rebuilds the round-robin ring; the caller holds s.mu.
func (s *Service) pruneLocked() {
	kept := s.ring[:0]
	for _, c := range s.ring {
		if c.active > 0 || len(c.queue) > 0 {
			kept = append(kept, c)
		} else {
			delete(s.clients, c.id)
		}
	}
	s.ring = kept
	if s.cursor >= len(s.ring) {
		s.cursor = 0
	}
}

// Admit runs the admission → dedupe pipeline for one request: rate-limit
// the client, resolve every spec against the cache and the in-flight map,
// and queue the remainder for scheduling. It returns one pending per spec
// (in spec order) or a sentinel error (ErrDraining, ErrDegraded,
// ErrRateLimited, ErrQueueFull) without admitting anything — admission is
// all-or-nothing so a rejected request never holds queue slots. Callers
// must pair a successful Admit with Release when the response finishes.
func (s *Service) Admit(client string, specs []campaign.RunSpec) ([]*pending, error) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if s.degraded {
		return nil, ErrDegraded
	}
	c := s.clientLocked(client, now)
	if !c.bucket.take(now) {
		return nil, ErrRateLimited
	}
	pendings := make([]*pending, 0, len(specs))
	var owned []*flight
	for _, spec := range specs {
		key := spec.CellKey()
		if s.cache != nil {
			if e, ok := s.cache.get(key); ok {
				s.cacheHits.Inc()
				pendings = append(pendings, &pending{line: e.line, rec: e.rec})
				continue
			}
		}
		if fl, ok := s.inflight[key]; ok {
			// Same cell already admitted (by anyone): join it. The joiner
			// neither queues nor runs anything.
			s.dedupJoins.Inc()
			pendings = append(pendings, &pending{fl: fl})
			continue
		}
		fl := &flight{spec: spec, owner: client, done: make(chan struct{})}
		s.inflight[key] = fl
		owned = append(owned, fl)
		pendings = append(pendings, &pending{fl: fl})
	}
	if s.queued+len(owned) > s.queueMax {
		for _, fl := range owned {
			delete(s.inflight, fl.spec.CellKey())
		}
		return nil, ErrQueueFull
	}
	if len(owned) > 0 && s.store != nil {
		// Write-ahead: the admit frames must be in the journal before any
		// of these runs may schedule. A failing sink rejects the whole
		// request (rollback, ErrStorage) — requests resolved purely from
		// the cache and in-flight joins still serve while degraded. This
		// is also the probe that heals a recovered sink.
		specs := make([]campaign.RunSpec, len(owned))
		for i, fl := range owned {
			specs[i] = fl.spec
		}
		if err := s.store.JournalAdmit(c.id, specs); err != nil {
			for _, fl := range owned {
				delete(s.inflight, fl.spec.CellKey())
			}
			return nil, err
		}
	}
	s.cacheMisses.Add(int64(len(owned)))
	c.queue = append(c.queue, owned...)
	s.queued += len(owned)
	s.queueDepth.Set(int64(s.queued))
	if c.active == 0 {
		s.clientsActive.Add(1)
	}
	c.active++
	if len(owned) > 0 {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	return pendings, nil
}

// Release ends one of the client's admitted requests (deferred by the
// handler after a successful Admit).
func (s *Service) Release(client string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.clients[client]
	if !ok {
		return
	}
	c.active--
	if c.active == 0 {
		s.clientsActive.Add(-1)
	}
}

// nextFlight dequeues the next run round-robin across clients — each pick
// advances the cursor past the chosen client, so a client with a deep
// queue gets one run per revolution, interleaved with everyone else's.
func (s *Service) nextFlight() *flight {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.ring)
	for i := 0; i < n; i++ {
		c := s.ring[(s.cursor+i)%n]
		if len(c.queue) == 0 {
			continue
		}
		fl := c.queue[0]
		c.queue = c.queue[1:]
		s.cursor = (s.cursor + i + 1) % n
		s.queued--
		s.queueDepth.Set(int64(s.queued))
		return fl
	}
	return nil
}

// schedule is the service's scheduler goroutine: woken by admissions, it
// drains the fair queue onto the pool, keeping at most pool-workers runs
// dispatched at once (the sem) so round-robin picks happen as slots free
// up rather than all at admission time.
func (s *Service) schedule() {
	defer close(s.schedDone)
	for {
		select {
		case <-s.stop:
			return
		case <-s.wake:
		}
		for {
			fl := s.nextFlight()
			if fl == nil {
				break
			}
			select {
			case s.sem <- struct{}{}:
			case <-s.stop:
				// Drain-path cleanup failed us a slot; put the flight back
				// for Shutdown's explicit-fail sweep.
				s.mu.Lock()
				s.requeueLocked(fl)
				s.mu.Unlock()
				return
			}
			go s.execFlight(fl)
		}
	}
}

// requeueLocked returns a dequeued flight to the front of its owner's
// queue (shutdown path only); the caller holds s.mu.
func (s *Service) requeueLocked(fl *flight) {
	c, ok := s.clients[fl.owner]
	if !ok {
		c = s.clientLocked(fl.owner, time.Now())
	}
	c.queue = append([]*flight{fl}, c.queue...)
	s.queued++
	s.queueDepth.Set(int64(s.queued))
}

// execFlight runs one flight on the pool and completes it. The pool call
// uses the background context deliberately: once scheduled, a run finishes
// and is cached even if every client that asked for it has disconnected.
func (s *Service) execFlight(fl *flight) {
	defer func() { <-s.sem }()
	rec, err := s.pool.Do(context.Background(), fl.spec)
	if err != nil {
		rec = campaign.ErrorRecord(fl.spec, err)
	}
	s.complete(fl, rec)
}

// complete publishes a flight's result: marshal the NDJSON line (the shared
// archival line encoding, so service streams and campaign sinks stay
// byte-compatible), cache it (error records are never cached — a transient
// failure must not poison the cell), fold it into the service failure
// budget, archive it, and release waiters.
func (s *Service) complete(fl *flight, rec campaign.RunRecord) {
	line, err := archival.MarshalLine(rec)
	if err != nil {
		// Unreachable for RunRecord, but never strand waiters on a
		// marshal bug.
		line = []byte(fmt.Sprintf(`{"error":%q}`+"\n", err.Error()))
	}
	s.mu.Lock()
	delete(s.inflight, fl.spec.CellKey())
	s.completing++
	if rec.Error == "" && s.cache != nil {
		s.cache.put(fl.spec.CellKey(), line, rec)
		s.cacheSize.Set(int64(s.cache.len()))
	}
	s.budgetCompleted++
	if rec.Error != "" {
		s.budgetErrors++
	}
	if b := s.cfg.Budget; b != nil && !s.degraded && b.Exceeded(s.budgetCompleted, s.budgetErrors) {
		s.degraded = true
		s.degradedG.Set(1)
		s.budgetTrips.Inc()
	}
	s.mu.Unlock()
	fl.line = line
	fl.rec = rec
	close(fl.done)
	if s.store != nil {
		// Archive row(s) first, done marker second — the write ordering the
		// crash contract rests on. Failures degrade the store (surfaced via
		// Ready and the next admission), never this completion: waiters
		// were already released above.
		_ = s.store.Complete(rec)
	}
	if s.cfg.OnRecord != nil {
		s.cfg.OnRecord(rec)
	}
	s.mu.Lock()
	s.completing--
	s.mu.Unlock()
}
