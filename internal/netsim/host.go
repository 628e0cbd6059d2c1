package netsim

import (
	"net/netip"
	"slices"

	"safemeasure/internal/packet"
)

// UDPHandler receives a UDP payload addressed to a bound port.
type UDPHandler func(h *Host, src netip.Addr, srcPort uint16, payload []byte)

// ICMPHandler receives ICMP messages addressed to the host.
type ICMPHandler func(h *Host, src netip.Addr, msg *packet.ICMP)

// Sniffer observes every datagram delivered to the host (before protocol
// dispatch), like a raw socket. The scanner and the spoofed-probe
// measurement techniques use this to see SYN/ACKs without a full TCP stack.
// pkt points into host-owned scratch reused on the next delivery; a sniffer
// that keeps anything must copy values (or raw, which is not reused).
type Sniffer func(raw []byte, pkt *packet.Packet)

// Host is an end system: one uplink port, one primary address, protocol
// handlers, and a raw send path that permits source-address spoofing (the
// realism of which is policed by the AS-edge SAV filter, not here).
type Host struct {
	Name string
	Addr netip.Addr

	sim  *Sim
	port *Port

	// TCPDispatch, if set, receives every TCP segment addressed to the
	// host. internal/tcpsim installs the real state machine here. If nil,
	// the host answers SYNs with RST (closed port), matching OS behavior.
	TCPDispatch func(h *Host, pkt *packet.Packet)

	udp         []udpBinding  // few per host, so a scan beats a map
	udp1        [1]udpBinding // udp's initial backing: most hosts bind one port
	icmpHandler ICMPHandler
	sniffers    []Sniffer
	reasm       *packet.Reassembler
	dec         packet.Decoder // per-delivery scratch; see Sniffer

	// Stats.
	Received  int
	Sent      int
	Discarded int // not addressed to us
}

type udpBinding struct {
	port uint16
	fn   UDPHandler
}

// NewHost creates a host bound to the simulator.
func NewHost(sim *Sim, name string, addr netip.Addr) *Host {
	h := &Host{Name: name, Addr: addr, sim: sim}
	h.udp = h.udp1[:0]
	return h
}

// Sim returns the simulator the host runs in.
func (h *Host) Sim() *Sim { return h.sim }

// AttachPort binds the host's uplink.
func (h *Host) AttachPort(p *Port) { h.port = p }

// BindUDP installs a handler for a UDP port; returns false if already bound.
func (h *Host) BindUDP(port uint16, fn UDPHandler) bool {
	if h.udpIndex(port) >= 0 {
		return false
	}
	h.udp = append(h.udp, udpBinding{port, fn})
	return true
}

// UnbindUDP removes a UDP binding.
func (h *Host) UnbindUDP(port uint16) {
	h.udp = slices.DeleteFunc(h.udp, func(b udpBinding) bool { return b.port == port })
}

// udpIndex returns the index of port's binding in h.udp, or -1.
func (h *Host) udpIndex(port uint16) int {
	for i := range h.udp {
		if h.udp[i].port == port {
			return i
		}
	}
	return -1
}

// HandleICMP installs the ICMP handler.
func (h *Host) HandleICMP(fn ICMPHandler) { h.icmpHandler = fn }

// AddSniffer registers a raw-socket observer.
func (h *Host) AddSniffer(s Sniffer) { h.sniffers = append(h.sniffers, s) }

// SendIP transmits a serialized IPv4 datagram. The source address is
// whatever the caller wrote into the header — hosts can spoof; the AS edge
// may filter.
func (h *Host) SendIP(raw []byte) {
	if h.port == nil {
		return
	}
	h.Sent++
	h.port.Send(raw)
}

// SendUDP builds and sends a UDP datagram from the host's own address.
func (h *Host) SendUDP(srcPort uint16, dst netip.Addr, dstPort uint16, payload []byte) error {
	raw, err := packet.BuildUDP(h.Addr, dst, packet.DefaultTTL,
		&packet.UDP{SrcPort: srcPort, DstPort: dstPort, Payload: payload})
	if err != nil {
		return err
	}
	h.SendIP(raw)
	return nil
}

// DeliverIP implements Endpoint. Hosts reassemble fragmented datagrams
// before protocol dispatch, as real IP stacks do — which is exactly why
// fragmentation evades middleboxes that don't (Handley et al.).
func (h *Host) DeliverIP(_ int, raw []byte) {
	if packet.IsFragment(raw) {
		if h.reasm == nil {
			h.reasm = packet.NewReassembler()
		}
		raw = h.reasm.Add(int64(h.sim.Now()), raw)
		if raw == nil {
			return // incomplete
		}
	}
	_, pkt := h.dec.Decode(raw, true)
	if pkt == nil {
		h.Discarded++
		return
	}
	for _, s := range h.sniffers {
		s(raw, pkt)
	}
	if pkt.IP.Dst != h.Addr {
		h.Discarded++
		return
	}
	h.Received++
	switch {
	case pkt.TCP != nil:
		if h.TCPDispatch != nil {
			h.TCPDispatch(h, pkt)
			return
		}
		h.replyRST(pkt)
	case pkt.UDP != nil:
		if i := h.udpIndex(pkt.UDP.DstPort); i >= 0 {
			h.udp[i].fn(h, pkt.IP.Src, pkt.UDP.SrcPort, pkt.UDP.Payload)
			return
		}
		h.replyPortUnreachable(pkt, raw)
	case pkt.ICMP != nil:
		h.handleICMP(pkt)
	}
}

// replyRST answers a segment to a closed port the way an OS would: RST for
// anything except an incoming RST. This is precisely the "cover traffic"
// behaviour the paper's stateless SYN probe relies on — a spoofed host that
// receives an unexpected SYN/ACK resets it, indistinguishable from the
// measurer's own deliberate RST.
func (h *Host) replyRST(pkt *packet.Packet) {
	t := pkt.TCP
	if t.Flags&packet.TCPRst != 0 {
		return
	}
	rst := &packet.TCP{SrcPort: t.DstPort, DstPort: t.SrcPort, Flags: packet.TCPRst | packet.TCPAck}
	if t.Flags&packet.TCPAck != 0 {
		rst.Seq = t.Ack
		rst.Flags = packet.TCPRst
	} else {
		rst.Ack = t.Seq + 1
	}
	raw, err := packet.BuildTCP(h.Addr, pkt.IP.Src, packet.DefaultTTL, rst)
	if err == nil {
		h.SendIP(raw)
	}
}

func (h *Host) replyPortUnreachable(pkt *packet.Packet, raw []byte) {
	quote := raw
	if max := pkt.IP.HeaderLen() + 8; len(quote) > max {
		quote = quote[:max]
	}
	msg := &packet.ICMP{Type: packet.ICMPDestUnreach, Code: packet.ICMPCodePortUnreach,
		Payload: append([]byte(nil), quote...)}
	out, err := packet.BuildICMP(h.Addr, pkt.IP.Src, packet.DefaultTTL, msg)
	if err == nil {
		h.SendIP(out)
	}
}

func (h *Host) handleICMP(pkt *packet.Packet) {
	msg := pkt.ICMP
	if msg.Type == packet.ICMPEchoRequest {
		reply := &packet.ICMP{Type: packet.ICMPEchoReply, ID: msg.ID, Seq: msg.Seq, Payload: msg.Payload}
		out, err := packet.BuildICMP(h.Addr, pkt.IP.Src, packet.DefaultTTL, reply)
		if err == nil {
			h.SendIP(out)
		}
		return
	}
	if h.icmpHandler != nil {
		h.icmpHandler(h, pkt.IP.Src, msg)
	}
}
