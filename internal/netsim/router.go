package netsim

import (
	"net/netip"
	"slices"
	"time"

	"safemeasure/internal/packet"
	"safemeasure/internal/telemetry"
)

// Verdict is a tap's decision about a datagram.
type Verdict int

// Tap verdicts. Only inline (censoring) taps may return Drop or Shape; the
// surveillance tap is passive and always passes.
const (
	Pass Verdict = iota
	Drop
	// Shape delays the datagram by TapPacket.Delay virtual nanoseconds
	// before forwarding it (a throttling middlebox). The router takes the
	// maximum Delay across taps; a Shape verdict with Delay == 0 forwards
	// normally. Delayed datagrams do not re-traverse the taps.
	Shape
)

// TapPacket is what a tap observes: the raw wire bytes plus a parse.
type TapPacket struct {
	Time   int64 // virtual nanoseconds (Sim.Now())
	Raw    []byte
	Pkt    *packet.Packet // nil if the datagram failed to parse
	InPort int
	// Delay is written by a tap returning Shape: how long the router holds
	// the datagram before forwarding. Reset by the router per datagram.
	Delay int64
}

// Tap observes datagrams traversing a router. The Injector lets a tap
// originate packets of its own (the censor's forged RSTs and DNS replies).
//
// tp and tp.Pkt are router-owned scratch, valid only for the duration of
// the Observe call: a tap that retains anything past its return must copy
// tp.Raw and re-Parse it. All in-tree taps either consume tp synchronously
// or copy what they keep.
type Tap interface {
	Observe(tp *TapPacket, inject Injector) Verdict
}

// TapFunc adapts a function to the Tap interface.
type TapFunc func(tp *TapPacket, inject Injector) Verdict

// Observe implements Tap.
func (f TapFunc) Observe(tp *TapPacket, inject Injector) Verdict { return f(tp, inject) }

// Injector sends a datagram into the network as if originated at the
// router's position (used for RST injection and DNS poisoning).
type Injector interface {
	Inject(raw []byte)
}

// route maps a destination prefix to an output port. For IPv4 prefixes the
// network and mask are precomputed as 32-bit words so lookup is two integer
// ops per route instead of a netip.Prefix.Contains call.
type route struct {
	prefix netip.Prefix
	net4   uint32
	mask4  uint32
	port   int
}

// addr4 packs a 4-byte address into a big-endian uint32.
func addr4(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// Router forwards IPv4 datagrams between its ports using longest-prefix
// match, decrements TTL, emits ICMP Time Exceeded when TTL expires, and runs
// its taps in order on every forwarded datagram.
type Router struct {
	Name string
	Addr netip.Addr // source of ICMP errors this router generates
	sim  *Sim

	ports       []*Port
	routes      []route
	defaultPort int // -1 if none
	taps        []Tap

	// Stats.
	Forwarded   int
	TTLExpired  int
	TapDropped  int
	TapShaped   int
	NoRoute     int
	ParseFailed int

	// Telemetry handles, resolved once from sim.Tel at construction;
	// nil (telemetry disabled) costs one comparison per use.
	mForwarded, mTTLExpired, mTapDropped, mTapShaped, mNoRoute *telemetry.Counter

	// dec and tp are per-router scratch reused across forwards, so the
	// hot path decodes and observes without allocating. Taps only see tp
	// during Observe; see the Tap contract.
	dec packet.Decoder
	tp  TapPacket
}

// NewRouter creates a router with the given number of ports.
func NewRouter(sim *Sim, name string, addr netip.Addr, nports int) *Router {
	// A router usually holds about one route per port, so AddRoute rarely
	// grows routes.
	r := &Router{Name: name, Addr: addr, sim: sim, ports: make([]*Port, nports),
		routes: make([]route, 0, nports), defaultPort: -1}
	r.mForwarded = sim.Tel.Counter("netsim_forwarded_total")
	r.mTTLExpired = sim.Tel.Counter("netsim_ttl_expired_total")
	r.mTapDropped = sim.Tel.Counter("netsim_tap_dropped_total")
	r.mTapShaped = sim.Tel.Counter("netsim_tap_shaped_total")
	r.mNoRoute = sim.Tel.Counter("netsim_no_route_total")
	return r
}

// AttachPort binds a link port to port index i.
func (r *Router) AttachPort(i int, p *Port) { r.ports[i] = p }

// AddRoute installs prefix -> port. Longest prefix wins.
func (r *Router) AddRoute(prefix netip.Prefix, port int) {
	rt := route{prefix: prefix, port: port}
	if prefix.Addr().Is4() {
		rt.net4 = addr4(prefix.Masked().Addr())
		if bits := prefix.Bits(); bits > 0 {
			rt.mask4 = ^uint32(0) << (32 - bits)
		}
	} else {
		// Non-IPv4 prefixes never match the fast path (mask 0 with a
		// nonzero network can't be satisfied); Contains handles them.
		rt.net4, rt.mask4 = 1, 0
	}
	// Keep routes ordered by descending prefix length, a new route after
	// every existing one at least as long: the order a stable sort of the
	// insertion sequence gives.
	i := len(r.routes)
	for i > 0 && r.routes[i-1].prefix.Bits() < prefix.Bits() {
		i--
	}
	r.routes = slices.Insert(r.routes, i, rt)
}

// SetDefaultRoute installs the port used when no prefix matches.
func (r *Router) SetDefaultRoute(port int) { r.defaultPort = port }

// AddTap appends a tap; taps run in attachment order.
func (r *Router) AddTap(t Tap) { r.taps = append(r.taps, t) }

// lookup returns the output port for dst, or -1.
func (r *Router) lookup(dst netip.Addr) int {
	if dst.Is4() {
		d := addr4(dst)
		for i := range r.routes {
			if rt := &r.routes[i]; d&rt.mask4 == rt.net4 {
				return rt.port
			}
		}
		return r.defaultPort
	}
	for _, rt := range r.routes {
		if rt.prefix.Contains(dst) {
			return rt.port
		}
	}
	return r.defaultPort
}

// DeliverIP implements Endpoint: a datagram arrived on port in.
func (r *Router) DeliverIP(in int, raw []byte) {
	r.forward(in, raw, true)
}

// Inject implements Injector: originate a datagram at this router. Injected
// packets are routed but do not traverse the router's taps again (the
// middlebox that created them has already seen them), and their TTL is not
// decremented here.
func (r *Router) Inject(raw []byte) {
	var ip packet.IPv4
	if err := ip.DecodeFromBytes(raw); err != nil {
		return
	}
	out := r.lookup(ip.Dst)
	if out < 0 || r.ports[out] == nil {
		r.NoRoute++
		r.mNoRoute.Inc()
		return
	}
	r.ports[out].Send(raw)
}

func (r *Router) forward(in int, raw []byte, runTaps bool) {
	wantTaps := runTaps && len(r.taps) > 0
	// One decode per hop, into router-owned scratch: the transport layer
	// is only parsed when a tap will look at it.
	ip, pkt := r.dec.Decode(raw, wantTaps)
	if ip == nil {
		r.ParseFailed++
		return
	}

	if wantTaps {
		tp := &r.tp
		tp.Time, tp.Raw, tp.Pkt, tp.InPort, tp.Delay = int64(r.sim.Now()), raw, pkt, in, 0
		var delay int64
		for _, t := range r.taps {
			switch t.Observe(tp, r) {
			case Drop:
				r.TapDropped++
				r.mTapDropped.Inc()
				if tr := r.sim.Trace; tr != nil {
					tr.Emit(int64(r.sim.Now()), telemetry.EvTapDrop,
						ip.Src.String(), ip.Dst.String(), r.Name)
				}
				return
			case Shape:
				if tp.Delay > delay {
					delay = tp.Delay
				}
			}
		}
		if delay > 0 {
			// Hold the datagram for the shaping delay, then forward it
			// without re-running the taps (the shaper already charged it).
			// The scratch decode is invalidated by the time the timer
			// fires, so the delayed path re-decodes from raw — which the
			// router owns outright once the caller's Send handed it over.
			r.TapShaped++
			r.mTapShaped.Inc()
			if tr := r.sim.Trace; tr != nil {
				tr.Emit(int64(r.sim.Now()), telemetry.EvTapShape,
					ip.Src.String(), ip.Dst.String(), r.Name)
			}
			r.sim.Schedule(time.Duration(delay), func() {
				r.forward(in, raw, false)
			})
			return
		}
	}

	if ip.TTL <= 1 {
		r.TTLExpired++
		r.mTTLExpired.Inc()
		if tr := r.sim.Trace; tr != nil {
			tr.Emit(int64(r.sim.Now()), telemetry.EvTTLExpiry,
				ip.Src.String(), ip.Dst.String(), r.Name)
		}
		r.sendTimeExceeded(ip, raw)
		return
	}

	out := r.lookup(ip.Dst)
	if out < 0 || r.ports[out] == nil {
		r.NoRoute++
		r.mNoRoute.Inc()
		return
	}

	// Decrement TTL and patch the header checksum in place: every frame in
	// the simulator is a canonical self-built datagram owned by exactly one
	// node at a time (Port.Send's no-reuse contract), so rewriting two
	// header bytes replaces a per-hop re-marshal allocation.
	if !packet.DecrementTTL(raw) {
		r.ParseFailed++
		return
	}
	r.Forwarded++
	r.mForwarded.Inc()
	r.ports[out].Send(raw)
}

// sendTimeExceeded emits ICMP Time Exceeded to the datagram's source,
// embedding the IP header + 8 payload bytes per RFC 792.
func (r *Router) sendTimeExceeded(ip *packet.IPv4, raw []byte) {
	if !r.Addr.IsValid() || isICMPError(ip, raw) {
		return // never ICMP-error about an ICMP error (RFC 1122 §3.2.2)
	}
	quote := raw
	maxQuote := ip.HeaderLen() + 8
	if len(quote) > maxQuote {
		quote = quote[:maxQuote]
	}
	msg := &packet.ICMP{Type: packet.ICMPTimeExceeded, Code: packet.ICMPCodeTTLExpired,
		Payload: append([]byte(nil), quote...)}
	out, err := packet.BuildICMP(r.Addr, ip.Src, packet.DefaultTTL, msg)
	if err != nil {
		return
	}
	r.Inject(out)
}

// isICMPError reports whether the datagram carries an ICMP *error* message
// (Destination Unreachable, Source Quench, Redirect, Time Exceeded,
// Parameter Problem). Per RFC 1122 §3.2.2 only those suppress further ICMP
// errors; informational messages like echo request/reply still elicit Time
// Exceeded, which is what lets traceroute run over ICMP. An unparsable ICMP
// datagram is treated as an error, erring on the side of suppression.
func isICMPError(ip *packet.IPv4, raw []byte) bool {
	if ip.Protocol != packet.ProtoICMP {
		return false
	}
	hdr := ip.HeaderLen()
	if len(raw) <= hdr {
		return true
	}
	switch raw[hdr] { // ICMP type is the first byte of the ICMP header
	case packet.ICMPDestUnreach, 4 /* source quench */, 5, /* redirect */
		packet.ICMPTimeExceeded, 12 /* parameter problem */ :
		return true
	}
	return false
}
