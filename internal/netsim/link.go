package netsim

import "time"

// Endpoint is anything a link can deliver packets to.
type Endpoint interface {
	// DeliverIP hands a serialized IPv4 datagram to the node, arriving on
	// the given port (the node's own port index).
	DeliverIP(port int, raw []byte)
}

// Port is one end of a link, bound to a node and a port index on that node.
type Port struct {
	sim  *Sim
	node Endpoint
	idx  int
	link *Link
}

// Impairment bundles every link-degradation knob so a whole impairment
// profile can be named once (the lab's presets) and applied atomically.
// All probabilities are in [0,1] and every random decision is drawn from
// the simulator's seeded RNG, so impaired runs stay byte-reproducible.
type Impairment struct {
	// Loss drops a datagram entirely.
	Loss float64
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
	// Reorder delays a datagram by an extra ReorderDelay, letting packets
	// sent after it overtake it — head-of-line reordering.
	Reorder float64
	// ReorderDelay is the extra delay applied to reordered packets; zero
	// means 4x the link latency (enough to overtake several successors).
	ReorderDelay time.Duration
	// Duplicate delivers a datagram twice (the copy one latency later).
	Duplicate float64
	// Corrupt flips one byte of the payload, chosen by the seeded RNG. The
	// corrupted copy fails checksum or parse checks downstream, so it acts
	// like loss that still consumes receiver work.
	Corrupt float64
}

// Link is a bidirectional point-to-point link with latency, optional
// per-packet jitter, and a set of impairments (loss, reordering,
// duplication, corruption) drawn from the simulator's seeded RNG.
type Link struct {
	sim     *Sim
	Latency time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter) to
	// each delivery, drawn from the simulator's seeded RNG — realistic
	// timing noise without losing reproducibility.
	Jitter time.Duration
	Loss   float64 // probability in [0,1] that a datagram is dropped
	// Reorder, Duplicate, Corrupt are the remaining impairment knobs; see
	// Impairment for semantics. Set them directly or via ApplyImpairment.
	Reorder      float64
	ReorderDelay time.Duration
	Duplicate    float64
	Corrupt      float64
	a, b         Port // held by value so a link is one allocation

	// Stats.
	Delivered  int
	Dropped    int
	Reordered  int
	Duplicated int
	Corrupted  int
}

// ApplyImpairment installs a whole impairment profile on the link.
func (l *Link) ApplyImpairment(im Impairment) {
	l.Loss = im.Loss
	l.Jitter = im.Jitter
	l.Reorder = im.Reorder
	l.ReorderDelay = im.ReorderDelay
	l.Duplicate = im.Duplicate
	l.Corrupt = im.Corrupt
}

// Connect creates a link between two endpoints. The returned ports are
// passed back in DeliverIP as the receiving node's port index.
func Connect(sim *Sim, a Endpoint, aPort int, b Endpoint, bPort int, latency time.Duration) *Link {
	l := &Link{sim: sim, Latency: latency}
	l.a = Port{sim: sim, node: a, idx: aPort, link: l}
	l.b = Port{sim: sim, node: b, idx: bPort, link: l}
	return l
}

// PortA returns the a-side port (attached to the first Connect argument).
func (l *Link) PortA() *Port { return &l.a }

// PortB returns the b-side port.
func (l *Link) PortB() *Port { return &l.b }

// AttachHost links a host's uplink to a router port. It returns the link so
// callers can adjust latency or loss afterwards.
func AttachHost(sim *Sim, h *Host, r *Router, rPort int, latency time.Duration) *Link {
	l := Connect(sim, h, 0, r, rPort, latency)
	h.AttachPort(l.PortA())
	r.AttachPort(rPort, l.PortB())
	return l
}

// ConnectRouters links two router ports together.
func ConnectRouters(sim *Sim, a *Router, aPort int, b *Router, bPort int, latency time.Duration) *Link {
	l := Connect(sim, a, aPort, b, bPort, latency)
	a.AttachPort(aPort, l.PortA())
	b.AttachPort(bPort, l.PortB())
	return l
}

// Send transmits raw from this port toward the peer, applying the link's
// impairments. Decisions are drawn from the simulator's RNG in a fixed
// order (loss, duplicate, reorder, corrupt, jitter) so a given seed always
// produces the same impairment sequence. The slice is not copied; callers
// must not reuse it.
func (p *Port) Send(raw []byte) {
	l := p.link
	rng := l.sim.Rand()
	if l.Loss > 0 && rng.Float64() < l.Loss {
		l.Dropped++
		return
	}
	peer := &l.a
	if p == &l.a {
		peer = &l.b
	}
	if l.Duplicate > 0 && rng.Float64() < l.Duplicate {
		l.Duplicated++
		// The copy trails the original by one extra latency; it gets its
		// own slice so downstream consumers never alias each other.
		dup := append([]byte(nil), raw...)
		l.deliver(peer, dup, 2*l.Latency)
	}
	delay := l.Latency
	if l.Reorder > 0 && rng.Float64() < l.Reorder {
		l.Reordered++
		extra := l.ReorderDelay
		if extra <= 0 {
			extra = 4 * l.Latency
		}
		delay += extra
	}
	if l.Corrupt > 0 && rng.Float64() < l.Corrupt && len(raw) > 0 {
		l.Corrupted++
		corrupted := append([]byte(nil), raw...)
		corrupted[rng.Intn(len(corrupted))] ^= 0xFF
		raw = corrupted
	}
	if l.Jitter > 0 {
		delay += time.Duration(rng.Int63n(int64(l.Jitter)))
	}
	l.deliver(peer, raw, delay)
}

// deliver schedules one arrival at the peer after delay. Deliveries are the
// simulator's hottest event; they go through the closure-free fast path.
func (l *Link) deliver(peer *Port, raw []byte, delay time.Duration) {
	l.sim.scheduleDelivery(delay, peer, raw)
}
