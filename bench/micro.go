package bench

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"time"

	"safemeasure/internal/archival"
	"safemeasure/internal/campaign"
	"safemeasure/internal/censor"
	"safemeasure/internal/core"
	"safemeasure/internal/dnssim"
	"safemeasure/internal/dnswire"
	"safemeasure/internal/httpwire"
	"safemeasure/internal/ids"
	"safemeasure/internal/lab"
	"safemeasure/internal/netsim"
	"safemeasure/internal/packet"
	"safemeasure/internal/surveil"
	"safemeasure/internal/tcpsim"
	"safemeasure/internal/websim"
)

// microCount is how many measure calls runMicro makes; each gets an equal
// slice of the micro-benchmark time.
const microCount = 12

// maxCaptureCells bounds how many plan cells the border capture runs, one
// run each.
const maxCaptureCells = 24

// measure calls op repeatedly for at least d and returns the mean wall time
// and heap allocations per call. Like testing.B it grows the iteration count
// until one timed batch lasts d.
func measure(d time.Duration, op func()) (nsPerOp, allocsPerOp float64) {
	op()
	var m0, m1 runtime.MemStats
	for n := 1; ; {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		el := time.Since(start)
		runtime.ReadMemStats(&m1)
		if el >= d || n >= 1<<30 {
			return float64(el) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
		}
		next := int(1.2 * float64(n) * float64(d) / float64(max(el, time.Microsecond)))
		n = min(max(next, n+1), 100*n)
	}
}

// borderSegment is one run's border traffic with the compiled rulesets that
// run's middleboxes used.
type borderSegment struct {
	packets []*netsim.TapPacket
	censor  *censor.Compiled
	surveil *ids.CompiledRules
}

// captureBorder runs one spec per plan cell with a netsim.Capture tap on the
// border router, recording what the border forwards past the censor.
func captureBorder(order []tracedSpec, horizon time.Duration, arts map[string]*lab.Artifacts) ([]borderSegment, int, error) {
	seen := map[[4]string]bool{}
	var segs []borderSegment
	total := 0
	for _, spec := range order {
		cell := [4]string{spec.Technique, spec.Scenario, spec.Impairment, spec.Behavior}
		if seen[cell] || len(segs) == maxCaptureCells {
			continue
		}
		seen[cell] = true
		cfg, sc, err := labConfig(spec.RunSpec, arts)
		if err != nil {
			return nil, 0, err
		}
		tech, ok := technique(spec.Technique)
		if !ok {
			return nil, 0, fmt.Errorf("bench: unknown technique %q", spec.Technique)
		}
		l, err := lab.New(cfg)
		if err != nil {
			return nil, 0, err
		}
		capture := netsim.NewCapture("border")
		l.Border.AddTap(capture)
		l.StartPopulation(horizon)
		core.RunWithRetry(l, tech, core.Target{Domain: sc.Domain, Path: sc.Path, Port: sc.Port, Addr: sc.Addr},
			spec.retry, func(*core.Result) {})
		l.Run()
		cc, err := censor.Compile(cfg.Censor)
		if err != nil {
			return nil, 0, err
		}
		segs = append(segs, borderSegment{packets: capture.Packets, censor: cc,
			surveil: l.Surveil.Engine().Compiled()})
		total += len(capture.Packets)
	}
	return segs, total, nil
}

type discardInjector struct{}

func (discardInjector) Inject([]byte) {}

// twoHosts wires a client and a server through one router with 1 ms links,
// the topology of the protocol packages' own benchmarks.
func twoHosts() (sim *netsim.Sim, client, server *netsim.Host, serverAddr netip.Addr) {
	clientAddr := netip.MustParseAddr("10.1.0.10")
	serverAddr = netip.MustParseAddr("203.0.113.80")
	sim = netsim.NewSim(1)
	client = netsim.NewHost(sim, "client", clientAddr)
	server = netsim.NewHost(sim, "server", serverAddr)
	r := netsim.NewRouter(sim, "r", netip.MustParseAddr("10.1.0.1"), 2)
	netsim.AttachHost(sim, client, r, 0, time.Millisecond)
	netsim.AttachHost(sim, server, r, 1, time.Millisecond)
	r.AddRoute(netip.PrefixFrom(clientAddr, 32), 0)
	r.SetDefaultRoute(1)
	return sim, client, server, serverAddr
}

// runMicro runs the layer micro-benchmarks for about d in total: lab
// construction with warm artifacts; a replay of captured border traffic
// through packet parsing, a fresh IDS engine, the censor and the
// surveillance system; the protocol simulators over a two-host network;
// and flattening plus the binary archive codec over the traced records.
func runMicro(res *Result, order []tracedSpec, horizon time.Duration, dec *decomposer, d time.Duration) error {
	each := d / (2 * microCount)

	cfg, _, err := labConfig(order[0].RunSpec, dec.arts)
	if err != nil {
		return err
	}
	_, allocs := measure(each, func() { _, err = lab.New(cfg) })
	if err != nil {
		return err
	}
	res.set("lab.new_allocs", allocs)

	segs, packets, err := captureBorder(order, horizon, dec.arts)
	if err != nil {
		return err
	}
	perPacket := func(v float64) float64 { return v / float64(packets) }
	ns, allocs := measure(each, func() {
		for _, s := range segs {
			for _, tp := range s.packets {
				_, _ = packet.Parse(tp.Raw)
			}
		}
	})
	res.set("packet.parse_ns", perPacket(ns))
	res.set("packet.parse_allocs", perPacket(allocs))
	ns, allocs = measure(each, func() {
		for _, s := range segs {
			e := s.surveil.NewEngine()
			for _, tp := range s.packets {
				if tp.Pkt != nil {
					e.Feed(tp.Time, tp.Pkt)
				}
			}
		}
	})
	res.set("ids.feed_ns", perPacket(ns))
	res.set("ids.feed_allocs", perPacket(allocs))
	ns, _ = measure(each, func() {
		for _, s := range segs {
			c := s.censor.New()
			for _, tp := range s.packets {
				cp := *tp
				c.Observe(&cp, discardInjector{})
			}
		}
	})
	res.set("censor.observe_ns", perPacket(ns))
	ns, _ = measure(each, func() {
		for _, s := range segs {
			sys := surveil.NewFromCompiled(surveil.DefaultMVRConfig(lab.ClientASPrefix), s.surveil)
			for _, tp := range s.packets {
				cp := *tp
				sys.Observe(&cp, discardInjector{})
			}
		}
	})
	res.set("surveil.observe_ns", perPacket(ns))

	if err := protocolMicro(res, each); err != nil {
		return err
	}
	archivalMicro(res, dec.recs, each)
	return nil
}

// protocolMicro times the protocol simulators and router forwarding, each
// on its own two-host network.
func protocolMicro(res *Result, each time.Duration) error {
	sim, client, server, addr := twoHosts()
	cs, ss := tcpsim.NewStack(client), tcpsim.NewStack(server)
	if err := ss.Listen(80, func(c *tcpsim.Conn) {
		c.OnData = func(c *tcpsim.Conn, data []byte) { c.Send(data) }
	}); err != nil {
		return err
	}
	payload := make([]byte, 1024)
	echoed := false
	ns, _ := measure(each, func() {
		echoed = false
		c := cs.Dial(addr, 80)
		c.OnConnect = func(c *tcpsim.Conn) { c.Send(payload) }
		c.OnData = func(c *tcpsim.Conn, data []byte) {
			if !echoed {
				echoed = true
				c.Close()
			}
		}
		sim.Run()
	})
	res.set("tcpsim.connect_send_close_ns", ns)

	sim, client, server, addr = twoHosts()
	if _, err := websim.NewServer(tcpsim.NewStack(server)); err != nil {
		return err
	}
	cs = tcpsim.NewStack(client)
	fetched := false
	ns, _ = measure(each, func() {
		websim.Get(cs, addr, "news.test", "/world", func(r *httpwire.Response, err error) {
			fetched = err == nil && r.Status == 200
		})
		sim.Run()
	})
	res.set("websim.get_ns", ns)

	sim, client, server, addr = twoHosts()
	zone := dnssim.NewZone()
	zone.AddA("www.example.test", addr)
	if _, err := dnssim.NewServer(server, zone); err != nil {
		return err
	}
	dc, err := dnssim.NewClient(client, 5353)
	if err != nil {
		return err
	}
	answered := false
	ns, _ = measure(each, func() {
		dc.Query(addr, "www.example.test", dnswire.TypeA, func(m *dnswire.Message, err error) {
			answered = err == nil && len(m.Answers) == 1 && m.Answers[0].A == addr
		})
		sim.Run()
	})
	res.set("dnssim.query_ns", ns)

	sim, client, server, addr = twoHosts()
	delivered := 0
	server.BindUDP(53, func(*netsim.Host, netip.Addr, uint16, []byte) { delivered++ })
	datagram := []byte("benchmark payload")
	ns, _ = measure(each, func() {
		_ = client.SendUDP(1, addr, 53, datagram)
		sim.Run()
	})
	res.set("netsim.forward_ns", ns)

	if !echoed || !fetched || !answered || delivered == 0 {
		res.fail("protocol micro-benchmarks: echo %v, fetch %v, answer %v, delivered %d",
			echoed, fetched, answered, delivered)
	}
	return nil
}

// archivalMicro times FlattenRecord and the binary archive codec over the
// traced records.
func archivalMicro(res *Result, recs []campaign.RunRecord, each time.Duration) {
	_, allocs := measure(each, func() {
		for _, rec := range recs {
			campaign.FlattenRecord(rec)
		}
	})
	res.set("campaign.flatten_allocs", allocs/float64(len(recs)))

	rows := make([][]archival.Observation, len(recs))
	nobs := 0
	for i, rec := range recs {
		rows[i] = campaign.FlattenRecord(rec)
		nobs += len(rows[i])
	}
	write := func(w io.Writer) {
		bw := archival.NewBinaryWriter(w)
		for _, obs := range rows {
			bw.WriteObservations(obs)
		}
		_ = bw.Flush()
	}
	var encoded bytes.Buffer
	write(&encoded)
	res.set("archival.bytes_per_run", float64(encoded.Len()-len(archival.Magic))/float64(len(recs)))
	ns, _ := measure(each, func() { write(io.Discard) })
	res.set("archival.encode_binary_ns", ns/float64(nobs))
	decoded := 0
	ns, _ = measure(each, func() {
		rd, err := archival.NewReader(bytes.NewReader(encoded.Bytes()), archival.TailStrict, nil)
		if err != nil {
			return
		}
		decoded = 0
		for {
			if _, err := rd.Next(); err != nil {
				break
			}
			decoded++
		}
	})
	res.set("archival.decode_binary_ns", ns/float64(nobs))
	if decoded != nobs {
		res.fail("archival decode read %d of %d observations", decoded, nobs)
	}
}
