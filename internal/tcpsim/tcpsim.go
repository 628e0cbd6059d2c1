// Package tcpsim implements TCP endpoints over the simulated network:
// three-way handshake, ordered data delivery with out-of-order buffering,
// FIN/RST teardown, and timer-based retransmission with bounded retries.
//
// The API is event-driven (callbacks rather than blocking reads) because the
// whole lab runs in virtual time on one goroutine. Application protocols
// (HTTP, SMTP) are small state machines on top of Conn.
//
// Censorship becomes observable here: an injected RST aborts the connection
// (OnReset), and a blackholed path exhausts the SYN retransmission budget
// (OnFail), which is exactly the evidence the measurement techniques in
// internal/core collect.
package tcpsim

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"safemeasure/internal/netsim"
	"safemeasure/internal/packet"
)

// MSS is the maximum segment payload the stack emits.
const MSS = 1460

// Stack defaults.
const (
	defaultRTO        = 200 * time.Millisecond
	defaultMaxRetries = 3
	timeWaitDelay     = time.Second
)

// State is a TCP connection state.
type State int

// Connection states (subset of RFC 793).
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{"closed", "listen", "syn-sent", "syn-rcvd",
	"established", "fin-wait-1", "fin-wait-2", "close-wait", "last-ack", "time-wait"}

// String returns the lowercase state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Errors surfaced through Conn.OnFail.
var (
	ErrTimeout = errors.New("tcpsim: connection timed out")
	ErrReset   = errors.New("tcpsim: connection reset by peer")
)

// Stack manages all TCP state for one host. Creating a stack installs it as
// the host's TCP dispatcher.
type Stack struct {
	host *netsim.Host
	sim  *netsim.Sim

	// The maps are made on first insert: most stacks in a lab (the idle
	// cover users') never listen, dial or ignore a port.
	listeners map[uint16]func(*Conn)
	conns     map[packet.Flow]*Conn
	ignored   map[uint16]bool
	nextPort  uint16

	// RTO is the retransmission timeout; MaxRetries bounds retransmissions
	// of any one segment before the connection fails.
	RTO        time.Duration
	MaxRetries int
}

// NewStack creates a stack bound to h and installs its dispatcher.
func NewStack(h *netsim.Host) *Stack {
	s := &Stack{
		host:     h,
		sim:      h.Sim(),
		nextPort: 32768,
		RTO:      defaultRTO, MaxRetries: defaultMaxRetries,
	}
	h.TCPDispatch = func(_ *netsim.Host, pkt *packet.Packet) { s.dispatch(pkt) }
	return s
}

// Host returns the host the stack is bound to.
func (s *Stack) Host() *netsim.Host { return s.host }

// Listen installs an accept callback for a local port. The callback runs
// when a peer completes the handshake.
func (s *Stack) Listen(port uint16, accept func(*Conn)) error {
	if _, ok := s.listeners[port]; ok {
		return fmt.Errorf("tcpsim: port %d already listening", port)
	}
	if s.listeners == nil {
		s.listeners = make(map[uint16]func(*Conn))
	}
	s.listeners[port] = accept
	return nil
}

// Close removes a listener; established connections continue.
func (s *Stack) CloseListener(port uint16) { delete(s.listeners, port) }

// ephemeralPort allocates the next client port.
func (s *Stack) ephemeralPort() uint16 {
	for {
		p := s.nextPort
		s.nextPort++
		if s.nextPort == 0 {
			s.nextPort = 32768
		}
		probe := packet.Flow{Proto: packet.ProtoTCP, Src: s.host.Addr, SrcPort: p}
		inUse := false
		for f := range s.conns {
			if f.Src == probe.Src && f.SrcPort == p {
				inUse = true
				break
			}
		}
		if !inUse {
			return p
		}
	}
}

// Dial opens a connection to (dst, port). Callbacks on the returned Conn
// fire as the handshake progresses; set them before the simulator runs.
func (s *Stack) Dial(dst netip.Addr, port uint16) *Conn {
	c := s.newConn(packet.Flow{
		Proto: packet.ProtoTCP,
		Src:   s.host.Addr, SrcPort: s.ephemeralPort(),
		Dst: dst, DstPort: port,
	})
	c.state = StateSynSent
	c.sndNxt = c.iss + 1
	c.sendSegment(c.iss, packet.TCPSyn, nil, true)
	return c
}

func (s *Stack) newConn(flow packet.Flow) *Conn {
	c := &Conn{
		stack: s,
		flow:  flow,
		iss:   uint32(s.sim.Rand().Int63()),
	}
	c.sndUna = c.iss
	if s.conns == nil {
		s.conns = make(map[packet.Flow]*Conn)
	}
	s.conns[flow] = c
	return c
}

// IgnorePort makes the stack stay silent for segments to a local port —
// no RST, no state. Raw-socket responders (the stateful-mimicry server)
// claim ports this way and handle them via sniffers.
func (s *Stack) IgnorePort(port uint16) {
	if s.ignored == nil {
		s.ignored = make(map[uint16]bool)
	}
	s.ignored[port] = true
}

// dispatch routes an incoming segment to its connection or listener.
func (s *Stack) dispatch(pkt *packet.Packet) {
	t := pkt.TCP
	if s.ignored[t.DstPort] {
		return
	}
	flow := packet.Flow{
		Proto: packet.ProtoTCP,
		Src:   s.host.Addr, SrcPort: t.DstPort,
		Dst: pkt.IP.Src, DstPort: t.SrcPort,
	}
	if c, ok := s.conns[flow]; ok {
		c.handle(pkt)
		return
	}
	if accept, ok := s.listeners[t.DstPort]; ok && t.Flags&packet.TCPSyn != 0 && t.Flags&packet.TCPAck == 0 {
		c := s.newConn(flow)
		c.accept = accept
		c.state = StateSynRcvd
		c.rcvNxt = t.Seq + 1
		c.sndNxt = c.iss + 1
		c.sendSegment(c.iss, packet.TCPSyn|packet.TCPAck, nil, true)
		return
	}
	// No connection, no listener: answer like an OS (RST unless RST).
	if t.Flags&packet.TCPRst == 0 {
		s.sendRST(pkt)
	}
}

// sendRST answers an unexpected segment with a reset.
func (s *Stack) sendRST(pkt *packet.Packet) {
	t := pkt.TCP
	rst := &packet.TCP{SrcPort: t.DstPort, DstPort: t.SrcPort}
	if t.Flags&packet.TCPAck != 0 {
		rst.Seq = t.Ack
		rst.Flags = packet.TCPRst
	} else {
		rst.Ack = t.Seq + segLen(t)
		rst.Flags = packet.TCPRst | packet.TCPAck
	}
	raw, err := packet.BuildTCP(s.host.Addr, pkt.IP.Src, packet.DefaultTTL, rst)
	if err == nil {
		s.host.SendIP(raw)
	}
}

// segLen is the sequence-space length of a segment.
func segLen(t *packet.TCP) uint32 {
	n := uint32(len(t.Payload))
	if t.Flags&packet.TCPSyn != 0 {
		n++
	}
	if t.Flags&packet.TCPFin != 0 {
		n++
	}
	return n
}

// seqLT is modular sequence comparison: a < b.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEQ is modular sequence comparison: a <= b.
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// pendingSeg is an unacknowledged segment awaiting ACK or retransmission.
type pendingSeg struct {
	seq     uint32
	flags   uint8
	payload []byte
	tries   int
}

// Conn is one TCP connection. All callbacks are optional.
type Conn struct {
	stack *Stack
	flow  packet.Flow // Src is the local endpoint
	state State

	accept func(*Conn) // listener callback, server side

	iss    uint32
	sndUna uint32
	sndNxt uint32
	rcvNxt uint32

	rtxq       []pendingSeg
	timerArmed bool
	ooo        map[uint32][]byte // out-of-order segments by seq; made on first use

	// OnConnect fires when the handshake completes (both sides).
	OnConnect func(*Conn)
	// OnData fires for each chunk of in-order application data.
	OnData func(*Conn, []byte)
	// OnClose fires on orderly shutdown (FIN exchanged both ways).
	OnClose func(*Conn)
	// OnFail fires when the connection dies abnormally; err is ErrReset for
	// an incoming RST (e.g. injected by a censor) or ErrTimeout when the
	// retransmission budget is exhausted (e.g. blackholed path).
	OnFail func(*Conn, error)

	// TTL overrides the IP TTL on outgoing segments when nonzero. The
	// stateful-mimicry measurement server uses this to TTL-limit replies.
	TTL uint8

	failed bool
	closed bool
}

// Flow returns the connection 5-tuple from the local perspective.
func (c *Conn) Flow() packet.Flow { return c.flow }

// State returns the current connection state.
func (c *Conn) State() State { return c.state }

// LocalPort returns the local port.
func (c *Conn) LocalPort() uint16 { return c.flow.SrcPort }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() netip.Addr { return c.flow.Dst }

// ttl returns the TTL for outgoing segments.
func (c *Conn) ttl() uint8 {
	if c.TTL != 0 {
		return c.TTL
	}
	return packet.DefaultTTL
}

// sendSegment transmits a segment and optionally tracks it for
// retransmission.
func (c *Conn) sendSegment(seq uint32, flags uint8, payload []byte, reliable bool) {
	t := &packet.TCP{
		SrcPort: c.flow.SrcPort, DstPort: c.flow.DstPort,
		Seq: seq, Flags: flags, Window: 65535, Payload: payload,
	}
	if flags&packet.TCPAck != 0 {
		t.Ack = c.rcvNxt
	}
	raw, err := packet.BuildTCP(c.flow.Src, c.flow.Dst, c.ttl(), t)
	if err != nil {
		return
	}
	c.stack.host.SendIP(raw)
	if reliable && segLen(t) > 0 {
		c.rtxq = append(c.rtxq, pendingSeg{seq: seq, flags: flags, payload: payload})
		c.armTimer()
	}
}

func (c *Conn) armTimer() {
	if c.timerArmed || len(c.rtxq) == 0 {
		return
	}
	c.timerArmed = true
	c.stack.sim.Schedule(c.stack.RTO, c.onTimer)
}

func (c *Conn) onTimer() {
	c.timerArmed = false
	if c.failed || c.closed || len(c.rtxq) == 0 {
		return
	}
	seg := &c.rtxq[0]
	seg.tries++
	if seg.tries > c.stack.MaxRetries {
		c.fail(ErrTimeout)
		return
	}
	// Retransmit the earliest unacked segment. ACK flag state may have
	// advanced; re-send with the current rcvNxt when the original had ACK.
	c.sendSegment(seg.seq, seg.flags, seg.payload, false)
	c.timerArmed = true
	c.stack.sim.Schedule(c.stack.RTO, c.onTimer)
}

// Send queues application data, segmenting at MSS.
func (c *Conn) Send(data []byte) {
	if c.failed || c.closed {
		return
	}
	for len(data) > 0 {
		n := len(data)
		if n > MSS {
			n = MSS
		}
		chunk := append([]byte(nil), data[:n]...)
		c.sendSegment(c.sndNxt, packet.TCPPsh|packet.TCPAck, chunk, true)
		c.sndNxt += uint32(n)
		data = data[n:]
	}
}

// Close starts an orderly shutdown (sends FIN).
func (c *Conn) Close() {
	switch c.state {
	case StateEstablished:
		c.state = StateFinWait1
	case StateCloseWait:
		c.state = StateLastAck
	default:
		return
	}
	c.sendSegment(c.sndNxt, packet.TCPFin|packet.TCPAck, nil, true)
	c.sndNxt++
}

// Abort sends a RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	c.sendSegment(c.sndNxt, packet.TCPRst, nil, false)
	c.teardown()
}

func (c *Conn) teardown() {
	c.state = StateClosed
	c.rtxq = nil
	delete(c.stack.conns, c.flow)
}

func (c *Conn) fail(err error) {
	if c.failed {
		return
	}
	c.failed = true
	c.teardown()
	if c.OnFail != nil {
		c.OnFail(c, err)
	}
}

// ackedThrough removes retransmission entries fully acknowledged by ack.
func (c *Conn) ackedThrough(ack uint32) {
	i := 0
	for ; i < len(c.rtxq); i++ {
		seg := c.rtxq[i]
		end := seg.seq + uint32(len(seg.payload))
		if seg.flags&packet.TCPSyn != 0 || seg.flags&packet.TCPFin != 0 {
			end++
		}
		if !seqLEQ(end, ack) {
			break
		}
	}
	c.rtxq = c.rtxq[i:]
}

// handle processes one incoming segment for this connection.
func (c *Conn) handle(pkt *packet.Packet) {
	t := pkt.TCP

	if t.Flags&packet.TCPRst != 0 {
		// Accept RSTs in window (simplified: matching rcvNxt or any during
		// handshake). Censors rely on exactly this behaviour.
		c.fail(ErrReset)
		return
	}

	switch c.state {
	case StateSynSent:
		if t.Flags&packet.TCPSyn != 0 && t.Flags&packet.TCPAck != 0 && t.Ack == c.iss+1 {
			c.rcvNxt = t.Seq + 1
			c.sndUna = t.Ack
			c.ackedThrough(t.Ack)
			c.state = StateEstablished
			c.sendSegment(c.sndNxt, packet.TCPAck, nil, false)
			if c.OnConnect != nil {
				c.OnConnect(c)
			}
		}
		return
	case StateSynRcvd:
		if t.Flags&packet.TCPAck != 0 && t.Ack == c.iss+1 {
			c.sndUna = t.Ack
			c.ackedThrough(t.Ack)
			c.state = StateEstablished
			if c.accept != nil {
				c.accept(c)
			}
			if c.OnConnect != nil {
				c.OnConnect(c)
			}
			// Fall through to process any data piggybacked on the ACK.
		} else {
			return
		}
	}

	if t.Flags&packet.TCPAck != 0 {
		if seqLT(c.sndUna, t.Ack) && seqLEQ(t.Ack, c.sndNxt) {
			c.sndUna = t.Ack
			c.ackedThrough(t.Ack)
			switch c.state {
			case StateFinWait1:
				if c.sndUna == c.sndNxt {
					c.state = StateFinWait2
				}
			case StateLastAck:
				if c.sndUna == c.sndNxt {
					c.finishClose()
					return
				}
			}
		}
	}

	if len(t.Payload) > 0 {
		c.ingestData(t.Seq, t.Payload)
	}

	if t.Flags&packet.TCPFin != 0 && t.Seq == c.rcvNxt {
		c.rcvNxt++
		c.sendSegment(c.sndNxt, packet.TCPAck, nil, false)
		switch c.state {
		case StateEstablished:
			c.state = StateCloseWait
			// Mirror the orderly close: the application layer in this lab
			// always closes promptly, so send our FIN too.
			c.Close()
		case StateFinWait1:
			c.state = StateLastAck // simultaneous close, simplified
		case StateFinWait2:
			c.state = StateTimeWait
			c.stack.sim.Schedule(timeWaitDelay, c.finishClose)
		}
	}
}

func (c *Conn) finishClose() {
	if c.failed || c.closed {
		return
	}
	c.closed = true
	c.teardown()
	if c.OnClose != nil {
		c.OnClose(c)
	}
}

// ingestData delivers in-order bytes and buffers out-of-order segments.
func (c *Conn) ingestData(seq uint32, payload []byte) {
	if seqLT(seq, c.rcvNxt) {
		// Duplicate or partially old; trim the overlap.
		skip := c.rcvNxt - seq
		if uint32(len(payload)) <= skip {
			c.sendSegment(c.sndNxt, packet.TCPAck, nil, false)
			return
		}
		payload = payload[skip:]
		seq = c.rcvNxt
	}
	if seq != c.rcvNxt {
		if c.ooo == nil {
			c.ooo = make(map[uint32][]byte)
		}
		c.ooo[seq] = append([]byte(nil), payload...)
		c.sendSegment(c.sndNxt, packet.TCPAck, nil, false) // dup-ack
		return
	}
	c.rcvNxt += uint32(len(payload))
	if c.OnData != nil {
		c.OnData(c, payload)
	}
	// Drain any now-contiguous out-of-order data.
	for {
		next, ok := c.ooo[c.rcvNxt]
		if !ok {
			break
		}
		delete(c.ooo, c.rcvNxt)
		c.rcvNxt += uint32(len(next))
		if c.OnData != nil {
			c.OnData(c, next)
		}
	}
	c.sendSegment(c.sndNxt, packet.TCPAck, nil, false)
}
