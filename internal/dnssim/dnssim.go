// Package dnssim provides a DNS client (stub resolver) and an authoritative
// DNS server over the simulated network. The client accepts the first
// response for a query id — which is exactly why the censor's forged,
// closer-injected answers win the race (internal/censor), the behaviour the
// paper's DNS measurements detect.
package dnssim

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"safemeasure/internal/dnswire"
	"safemeasure/internal/netsim"
)

// ErrTimeout is reported when no response arrives in time.
var ErrTimeout = errors.New("dnssim: query timed out")

// Client is a stub resolver bound to one UDP port on a host.
type Client struct {
	host *netsim.Host
	port uint16

	nextID  uint16
	pending map[uint16]*pendingQuery // made by the first Query

	// Timeout bounds each query.
	Timeout time.Duration
}

type pendingQuery struct {
	cb   func(*dnswire.Message, error)
	done bool
}

// NewClient binds a resolver to the host's UDP port.
func NewClient(h *netsim.Host, port uint16) (*Client, error) {
	c := &Client{host: h, port: port, nextID: 1, Timeout: 500 * time.Millisecond}
	if !h.BindUDP(port, c.onDatagram) {
		return nil, fmt.Errorf("dnssim: UDP port %d in use on %s", port, h.Name)
	}
	return c, nil
}

func (c *Client) onDatagram(_ *netsim.Host, src netip.Addr, srcPort uint16, payload []byte) {
	msg, err := dnswire.ParseMessage(payload)
	if err != nil || !msg.Response {
		return
	}
	pq, ok := c.pending[msg.ID]
	if !ok || pq.done {
		return // late duplicate (e.g. the real answer after a forged one)
	}
	pq.done = true
	delete(c.pending, msg.ID)
	pq.cb(msg, nil)
}

// Query sends a question to server and calls cb with the FIRST response
// (forged answers that arrive earlier shadow the truth) or ErrTimeout.
func (c *Client) Query(server netip.Addr, name string, t dnswire.RRType, cb func(*dnswire.Message, error)) {
	id := c.nextID
	c.nextID++
	if c.nextID == 0 {
		c.nextID = 1
	}
	pq := &pendingQuery{cb: cb}
	if c.pending == nil {
		c.pending = make(map[uint16]*pendingQuery)
	}
	c.pending[id] = pq
	q := dnswire.NewQuery(id, name, t)
	wire, err := q.Marshal()
	if err != nil {
		delete(c.pending, id)
		cb(nil, err)
		return
	}
	c.host.SendUDP(c.port, server, 53, wire)
	c.host.Sim().Schedule(c.Timeout, func() {
		if !pq.done {
			pq.done = true
			delete(c.pending, id)
			cb(nil, ErrTimeout)
		}
	})
}

// Zone is a simple authoritative dataset.
type Zone struct {
	A  map[string]netip.Addr // name -> address
	MX map[string][]MXRecord // name -> mail exchangers
}

// MXRecord is one MX entry.
type MXRecord struct {
	Pref uint16
	Host string
}

// NewZone creates an empty zone.
func NewZone() *Zone {
	return &Zone{A: make(map[string]netip.Addr), MX: make(map[string][]MXRecord)}
}

// AddA registers an address record.
func (z *Zone) AddA(name string, addr netip.Addr) {
	z.A[dnswire.CanonicalName(name)] = addr
}

// AddMX registers a mail exchanger.
func (z *Zone) AddMX(name string, pref uint16, host string) {
	key := dnswire.CanonicalName(name)
	z.MX[key] = append(z.MX[key], MXRecord{Pref: pref, Host: dnswire.CanonicalName(host)})
}

// Server answers queries from a zone on UDP 53.
type Server struct {
	zone *Zone

	// Queries counts questions served.
	Queries int
}

// NewServer binds an authoritative server to the host.
func NewServer(h *netsim.Host, zone *Zone) (*Server, error) {
	s := &Server{zone: zone}
	if !h.BindUDP(53, s.onDatagram) {
		return nil, fmt.Errorf("dnssim: UDP port 53 in use on %s", h.Name)
	}
	return s, nil
}

func (s *Server) onDatagram(h *netsim.Host, src netip.Addr, srcPort uint16, payload []byte) {
	q, err := dnswire.ParseMessage(payload)
	if err != nil || q.Response || len(q.Questions) == 0 {
		return
	}
	s.Queries++
	r := q.Reply()
	r.Authoritative = true
	question := q.Questions[0]
	name := dnswire.CanonicalName(question.Name)
	switch question.Type {
	case dnswire.TypeA:
		if addr, ok := s.zone.A[name]; ok {
			r.Answers = append(r.Answers, dnswire.RR{Name: name, Type: dnswire.TypeA, TTL: 300, A: addr})
		} else {
			r.RCode = dnswire.RCodeNXDomain
		}
	case dnswire.TypeMX:
		if mxs, ok := s.zone.MX[name]; ok {
			for _, mx := range mxs {
				r.Answers = append(r.Answers, dnswire.RR{Name: name, Type: dnswire.TypeMX, TTL: 300, Pref: mx.Pref, Target: mx.Host})
				// Glue: include the exchanger's address when known.
				if addr, ok := s.zone.A[mx.Host]; ok {
					r.Additional = append(r.Additional, dnswire.RR{Name: mx.Host, Type: dnswire.TypeA, TTL: 300, A: addr})
				}
			}
		} else {
			r.RCode = dnswire.RCodeNXDomain
		}
	default:
		r.RCode = dnswire.RCodeNXDomain
	}
	wire, err := r.Marshal()
	if err != nil {
		return
	}
	h.SendUDP(53, src, srcPort, wire)
}
