// Package lab assembles the paper's reference environment (Figure 1): a
// client AS holding the measurement client and a population of cover users,
// an AS edge router enforcing source-address validation, a border router
// carrying the two middlebox taps (censor + surveillance — the paper's two
// Snort instances), and a server zone with web, DNS, and mail servers plus
// a measurer-controlled target.
//
// Topology (latencies per link):
//
//	client, population... — EdgeRouter — Border — {web, sensitive-web,
//	                                               dns, mail, measure, p2p}
//
// The surveillance tap observes everything crossing the border (including
// traffic the censor subsequently drops); the censor tap is inline and may
// drop or inject. TTL-limited replies from the measurement server cross the
// border (and its taps) and then expire at the edge router, before reaching
// any client — the Figure 3b geometry.
package lab

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"safemeasure/internal/censor"
	"safemeasure/internal/dnssim"
	"safemeasure/internal/mailsim"
	"safemeasure/internal/netsim"
	"safemeasure/internal/population"
	"safemeasure/internal/spoof"
	"safemeasure/internal/surveil"
	"safemeasure/internal/tcpsim"
	"safemeasure/internal/telemetry"
	"safemeasure/internal/websim"
)

// Well-known lab addresses.
var (
	ClientASPrefix = netip.MustParsePrefix("10.1.0.0/16")
	ClientAddr     = netip.MustParseAddr("10.1.0.10")
	EdgeAddr       = netip.MustParseAddr("10.1.0.1")
	BorderAddr     = netip.MustParseAddr("198.51.100.1")
	WebAddr        = netip.MustParseAddr("203.0.113.80")
	SensitiveAddr  = netip.MustParseAddr("203.0.113.81") // hosts censored sites
	DNSAddr        = netip.MustParseAddr("203.0.113.53")
	MailAddr       = netip.MustParseAddr("203.0.113.25")
	MeasureAddr    = netip.MustParseAddr("198.51.100.10") // measurer-controlled (cloud)
	P2PPeerAddr    = netip.MustParseAddr("203.0.113.99")
	ScannerAddr    = netip.MustParseAddr("198.51.100.66") // background Internet scanner

	// PoisonPrefix is the bogon space forged DNS answers land in; probes
	// recognize answers inside it as poisoning.
	PoisonPrefix = netip.MustParsePrefix("198.18.0.0/15")
	PoisonAddr   = netip.MustParseAddr("198.18.0.1")
)

// Config parameterizes the lab.
type Config struct {
	// PopulationSize is the number of cover users in the client AS.
	PopulationSize int
	// LinkLatency applies to every link.
	LinkLatency time.Duration
	// LinkJitter adds uniformly distributed per-packet delay in
	// [0, LinkJitter) to every link — deterministic timing noise that
	// exercises retransmission and reordering paths.
	LinkJitter time.Duration
	// Impair degrades the WAN uplink (the edge↔border link every probe
	// crosses) with the given loss/reorder/duplicate/corrupt profile. All
	// impairment randomness comes from the lab's seeded RNG. See
	// Impairments() for the named presets campaigns sweep.
	Impair netsim.Impairment
	// Behavior makes the censor itself adversarial (intermittent
	// enforcement, throttling, truncated blockpages, lazy or exhausted
	// injectors). The zero value is the faithful censor. Behavior is
	// runtime-only state on the censor instance — it does not affect the
	// compiled artifacts, so behaviored and faithful runs share Artifacts.
	// See Behaviors() for the named presets campaigns sweep.
	Behavior censor.Behavior
	// Censor configures the censorship middlebox. Zero value gives the
	// default GFC-style setup (keywords + poisoned domains).
	Censor censor.Config
	// SpoofPolicy is the SAV regime of the client's network.
	SpoofPolicy spoof.Policy
	// SurveilRules overrides the surveillance ruleset (Snort-like text);
	// empty uses the default subscribed ruleset derived from the censor
	// config.
	SurveilRules string
	// Population traffic rates; zero value uses DefaultRates.
	PopRates population.Rates
	// DisableMVRDiscard turns off the surveillance system's wholesale
	// class discard (E12 ablation: the §3 techniques lose their cover).
	DisableMVRDiscard bool
	// BackgroundScanRate, when nonzero, drives an external Internet
	// scanner probing the client AS at this rate (SYNs/second) during
	// StartPopulation — the Durumeric et al. background the paper's
	// Method #1 hides in.
	BackgroundScanRate float64
	// SiteCount is how many innocuous sites the lab hosts and serves DNS
	// for (0 means 30). Campaign runs build thousands of labs; a smaller
	// catalog makes per-run construction cheaper without changing any
	// technique's behaviour.
	SiteCount int
	Seed      int64

	// Artifacts, when set, supplies pre-compiled rulesets, the DNS zone,
	// and the site catalog so New skips recompiling them. The artifacts
	// must have been built (via NewArtifacts) from a config whose
	// compile-relevant fields (Censor, SurveilRules, SiteCount) equal this
	// one's — New fails with a descriptive error otherwise. Nil compiles
	// everything fresh.
	Artifacts *Artifacts

	// Telemetry, when set, receives hot-path metrics from the simulator,
	// routers, middleboxes, and techniques. Nil keeps the zero-overhead
	// disabled path.
	Telemetry *telemetry.Registry
	// Trace, when set, receives packet-path events stamped with the lab's
	// virtual clock. Nil disables tracing.
	Trace *telemetry.Tracer
}

// DefaultCensorConfig is the GFC-style ground truth used across the
// experiments: keyword RST injection, DNS poisoning of the paper's two
// validated domains plus a lab domain, port blocking and a blackhole.
func DefaultCensorConfig() censor.Config {
	return censor.Config{
		Keywords:       []string{"falun", "ultrasurf"},
		BlockedDomains: []string{"twitter.com", "youtube.com", "banned.test"},
		PoisonAddr:     PoisonAddr,
		BlockedPorts:   nil,
		Blackholed:     nil,
	}
}

// Lab is the assembled environment.
type Lab struct {
	Cfg Config
	Sim *netsim.Sim

	// Measurement client and its protocol endpoints.
	Client      *netsim.Host
	ClientStack *tcpsim.Stack
	ClientDNS   *dnssim.Client

	// Population cover users.
	Population []population.User
	Pop        *population.Generator

	// Routers.
	Edge   *netsim.Router
	Border *netsim.Router

	// Server zone.
	Web       *websim.Server
	Sensitive *websim.Server
	DNS       *dnssim.Server
	Mail      *mailsim.Server

	// Measurement server (controlled by the measurer).
	MeasureHost  *netsim.Host
	MeasureStack *tcpsim.Stack
	MeasureWeb   *websim.Server

	// ScannerHost is the external background scanner (Durumeric noise).
	ScannerHost *netsim.Host

	// Middleboxes.
	Censor  *censor.Censor
	Surveil *surveil.System
	SAV     *spoof.Filter

	// Uplink is the edge↔border WAN link — the only link Config.Impair
	// applies to. lanLinks are the client-AS host↔edge links, kept so
	// tests can assert the impairment scope contract (see LANLinks).
	Uplink   *netsim.Link
	lanLinks []*netsim.Link

	// hostPorts maps an edge router port to the true address of the host
	// behind it; the uplink port lies past its end.
	hostPorts []netip.Addr

	// Sites served by the lab.
	InnocuousSites []string
	CensoredSites  []string
}

// normalize applies Config defaults. New and NewArtifacts share it so
// artifacts built from a bare scenario preset match the defaulted config
// every lab actually runs with.
func normalize(cfg Config) Config {
	if cfg.PopulationSize <= 0 {
		cfg.PopulationSize = 20
	}
	if cfg.LinkLatency == 0 {
		cfg.LinkLatency = time.Millisecond
	}
	if len(cfg.Censor.Keywords) == 0 && len(cfg.Censor.BlockedDomains) == 0 &&
		len(cfg.Censor.Blackholed) == 0 && len(cfg.Censor.BlockedPorts) == 0 {
		cfg.Censor = DefaultCensorConfig()
	}
	if cfg.PopRates == (population.Rates{}) {
		cfg.PopRates = population.DefaultRates()
	}
	if cfg.SiteCount <= 0 {
		cfg.SiteCount = 30
	}
	return cfg
}

// popHostsPerSubnet is how many population hosts one /24 holds: final
// octets 20..255 (below 20 is reserved for routers and the client).
const popHostsPerSubnet = 236

// popAddr returns population host i's address. Hosts split into two address
// scopes so both spoofing regimes are exercised — the first half lives in
// even third-octet /24s starting with the client's own 10.1.0.0/24, the
// second half in odd /24s starting at 10.1.1.0/24 — and each scope spills
// into further /24s once a subnet's 236-host range fills, instead of
// silently wrapping the final octet onto already-assigned addresses.
func popAddr(i, populationSize int) (netip.Addr, error) {
	j, base := i, 0
	if half := populationSize / 2; i >= half {
		j, base = i-half, 1
	}
	subnet := base + 2*(j/popHostsPerSubnet)
	if subnet > 255 {
		return netip.Addr{}, fmt.Errorf("lab: population size %d does not fit the client AS %s (host %d would need subnet 10.1.%d.0/24)",
			populationSize, ClientASPrefix, i, subnet)
	}
	return netip.AddrFrom4([4]byte{10, 1, byte(subnet), byte(20 + j%popHostsPerSubnet)}), nil
}

// New assembles a lab. Population hosts are split across the client's /24
// and sibling /24s so both spoofing scopes are exercised.
func New(cfg Config) (*Lab, error) {
	cfg = normalize(cfg)
	art := cfg.Artifacts
	if art == nil {
		var err error
		if art, err = NewArtifacts(cfg); err != nil {
			return nil, err
		}
	} else if err := art.matches(cfg); err != nil {
		return nil, err
	}

	nHosts := cfg.PopulationSize + 1
	l := &Lab{
		Cfg:        cfg,
		Sim:        netsim.NewSim(cfg.Seed),
		Population: make([]population.User, 0, cfg.PopulationSize),
		lanLinks:   make([]*netsim.Link, 0, nHosts),
		hostPorts:  make([]netip.Addr, nHosts),
	}
	// Telemetry must be installed before any router is constructed: routers
	// resolve their counter handles from Sim.Tel at creation time.
	l.Sim.Tel = cfg.Telemetry
	l.Sim.Trace = cfg.Trace
	lat := cfg.LinkLatency

	l.Edge = netsim.NewRouter(l.Sim, "edge", EdgeAddr, nHosts+1)
	l.Border = netsim.NewRouter(l.Sim, "border", BorderAddr, 8)

	// Measurement client on edge port 0.
	l.Client = netsim.NewHost(l.Sim, "client", ClientAddr)
	l.attachClientHost(l.Client, 0, lat)
	l.ClientStack = tcpsim.NewStack(l.Client)
	var err error
	if l.ClientDNS, err = dnssim.NewClient(l.Client, 5353); err != nil {
		return nil, err
	}

	// Population hosts on edge ports 1..n: first half shares the client's
	// /24 scope, second half the sibling-/24 scope (see popAddr).
	for i := 0; i < cfg.PopulationSize; i++ {
		addr, err := popAddr(i, cfg.PopulationSize)
		if err != nil {
			return nil, err
		}
		h := netsim.NewHost(l.Sim, "pop"+strconv.Itoa(i), addr)
		l.attachClientHost(h, i+1, lat)
		stack := tcpsim.NewStack(h)
		dnsc, err := dnssim.NewClient(h, 5353)
		if err != nil {
			return nil, err
		}
		l.Population = append(l.Population, population.User{Host: h, Stack: stack, DNS: dnsc})
	}

	// Edge uplink to border. Client-AS destinations without a host route
	// are null-routed at the edge (port -1) so replies to spoofed,
	// unassigned cover addresses die there instead of looping.
	// The uplink carries every probe and reply, so it is where the WAN
	// impairment profile lives; per-link jitter still applies when larger.
	uplink := netsim.ConnectRouters(l.Sim, l.Edge, nHosts, l.Border, 0, lat)
	uplink.ApplyImpairment(cfg.Impair)
	if cfg.LinkJitter > uplink.Jitter {
		uplink.Jitter = cfg.LinkJitter
	}
	l.Uplink = uplink
	l.Edge.AddRoute(ClientASPrefix, -1)
	l.Edge.SetDefaultRoute(nHosts)
	l.Border.AddRoute(ClientASPrefix, 0)

	// SAV filter at the edge: drops spoofed sources outside the sender's
	// allowed scope. The true sender is known from the ingress port.
	l.SAV = spoof.NewFilter()
	l.SAV.SetPolicy(ClientAddr, cfg.SpoofPolicy)
	l.Edge.AddTap(netsim.TapFunc(l.savTap))

	// Server zone on border ports 1..6.
	mkServer := func(name string, addr netip.Addr, port int) *netsim.Host {
		h := netsim.NewHost(l.Sim, name, addr)
		link := netsim.AttachHost(l.Sim, h, l.Border, port, lat)
		link.Jitter = l.Cfg.LinkJitter
		l.Border.AddRoute(netip.PrefixFrom(addr, 32), port)
		return h
	}
	webHost := mkServer("web", WebAddr, 1)
	sensHost := mkServer("sensitive-web", SensitiveAddr, 2)
	dnsHost := mkServer("dns", DNSAddr, 3)
	mailHost := mkServer("mail", MailAddr, 4)
	l.MeasureHost = mkServer("measure", MeasureAddr, 5)
	p2pHost := mkServer("p2p-peer", P2PPeerAddr, 6)
	p2pHost.BindUDP(6881, func(*netsim.Host, netip.Addr, uint16, []byte) {})
	l.ScannerHost = mkServer("bg-scanner", ScannerAddr, 7)

	if l.Web, err = websim.NewServer(tcpsim.NewStack(webHost)); err != nil {
		return nil, err
	}
	if l.Sensitive, err = websim.NewServer(tcpsim.NewStack(sensHost)); err != nil {
		return nil, err
	}
	if l.Mail, err = mailsim.NewServer(tcpsim.NewStack(mailHost)); err != nil {
		return nil, err
	}
	l.MeasureStack = tcpsim.NewStack(l.MeasureHost)
	if l.MeasureWeb, err = websim.NewServer(l.MeasureStack); err != nil {
		return nil, err
	}

	// Site catalog and DNS zone come from the compiled artifacts (the zone
	// is read-only at serve time, the slices are never mutated).
	l.InnocuousSites = art.innocuous
	l.CensoredSites = art.censored
	if l.DNS, err = dnssim.NewServer(dnsHost, art.zone); err != nil {
		return nil, err
	}

	// Middleboxes on the border: surveillance observes first (a passive
	// optical tap sees traffic whether or not the censor later drops it),
	// then the inline censor. Both engines are instantiated over the
	// artifacts' compiled rulesets; all per-run state stays private.
	mvrCfg := surveil.DefaultMVRConfig(ClientASPrefix)
	if cfg.DisableMVRDiscard {
		mvrCfg.DiscardClasses = nil
	}
	l.Surveil = surveil.NewFromCompiled(mvrCfg, art.surveil)
	l.Surveil.Analyst().Population = cfg.PopulationSize + 1
	l.Border.AddTap(l.Surveil)

	l.Censor = art.censor.New()
	// The behavior seed is its own derivation (seed + 2, beside the
	// population's seed + 1) so adding a behavior never perturbs any other
	// seeded stream.
	l.Censor.SetBehavior(cfg.Behavior, cfg.Seed+2, l.Sim)
	l.Border.AddTap(l.Censor)

	if cfg.Telemetry != nil || cfg.Trace != nil {
		l.Surveil.SetTelemetry(cfg.Telemetry, cfg.Trace)
		l.Censor.SetTelemetry(cfg.Telemetry, cfg.Trace)
	}

	// Population generator.
	l.Pop = population.New(l.Sim, population.Config{
		Sites:             l.InnocuousSites,
		CensoredSites:     l.CensoredSites,
		CensoredVisitProb: 0.02,
		WebServer:         WebAddr,
		CensoredWebServer: SensitiveAddr,
		DNSServer:         DNSAddr,
		MailServer:        MailAddr,
		P2PPeer:           P2PPeerAddr,
		Rates:             cfg.PopRates,
		Seed:              cfg.Seed + 1,
	})
	for _, u := range l.Population {
		l.Pop.AddUser(u)
	}
	return l, nil
}

// attachClientHost wires a host into the edge router and records the
// port->address mapping the SAV tap uses.
func (l *Lab) attachClientHost(h *netsim.Host, port int, lat time.Duration) {
	link := netsim.AttachHost(l.Sim, h, l.Edge, port, lat)
	link.Jitter = l.Cfg.LinkJitter
	l.Edge.AddRoute(netip.PrefixFrom(h.Addr, 32), port)
	l.hostPorts[port] = h.Addr
	l.lanLinks = append(l.lanLinks, link)
}

// LANLinks returns the client-AS host↔edge links. Config.Impair never
// touches these — the impairment scope contract tests assert they stay
// clean.
func (l *Lab) LANLinks() []*netsim.Link { return l.lanLinks }

// savTap enforces source-address validation at the AS edge.
func (l *Lab) savTap(tp *netsim.TapPacket, _ netsim.Injector) netsim.Verdict {
	if tp.InPort >= len(l.hostPorts) || tp.Pkt == nil {
		return netsim.Pass // downstream traffic or unparsable
	}
	truth := l.hostPorts[tp.InPort]
	if tp.Pkt.IP.Src == truth {
		return netsim.Pass
	}
	if l.SAV.Allow(truth, tp.Pkt.IP.Src) {
		return netsim.Pass
	}
	return netsim.Drop
}

// DefaultSurveilRules derives the surveillance system's "subscribed
// ruleset" from the censorship ground truth: signatures for overt
// censorship measurement (high analyst weight) and for malware-looking
// behaviour (scan/spam/ddos — low weight, and the MVR discards those
// classes wholesale anyway).
func DefaultSurveilRules(c censor.Config) string {
	var b strings.Builder
	sid := 5000
	for _, dom := range c.BlockedDomains {
		// DNS A question for the censored domain, wire format (length-
		// prefixed labels, root byte, qtype A, qclass IN):
		// |07|twitter|03|com|00 00 01 00 01|. Pinning the qtype to A is
		// deliberate — an analyst hunts browsing-style lookups; MX
		// lookups are indistinguishable from zone-enumerating spam bots
		// (the gap Method #2 hides in).
		fmt.Fprintf(&b, "alert udp $HOME_NET any -> any 53 (msg:\"censored-domain DNS lookup %s\"; content:\"%s|00 00 01 00 01|\"; nocase; sid:%d; classtype:censorship-measurement;)\n",
			dom, wireName(dom), sid)
		sid++
		fmt.Fprintf(&b, "alert tcp $HOME_NET any -> any 80 (msg:\"censored-domain HTTP host %s\"; content:\"Host: %s\"; nocase; sid:%d; classtype:censorship-measurement;)\n",
			dom, dom, sid)
		sid++
	}
	for _, kw := range c.Keywords {
		fmt.Fprintf(&b, "alert tcp $HOME_NET any -> any any (msg:\"censored keyword %s\"; content:\"%s\"; nocase; sid:%d; classtype:censorship-measurement;)\n",
			kw, kw, sid)
		sid++
	}
	for _, p := range c.Blackholed {
		fmt.Fprintf(&b, "alert tcp $HOME_NET any -> %s any (msg:\"connection attempt to blackholed prefix %s\"; flags:S; sid:%d; classtype:censorship-measurement;)\n",
			p, p, sid)
		sid++
	}
	for _, port := range c.BlockedPorts {
		fmt.Fprintf(&b, "alert tcp $HOME_NET any -> any %d (msg:\"connection attempt to blocked port %d\"; flags:S; sid:%d; classtype:censorship-measurement;)\n",
			port, port, sid)
		sid++
	}
	b.WriteString(`
# malware-class signatures (weight ~0 for the analyst; classes discarded by MVR)
alert tcp $HOME_NET any -> any any (msg:"nmap syn scan"; flags:S; threshold:type both, track by_src, count 15, seconds 10; sid:5900; classtype:attempted-recon;)
alert tcp $HOME_NET any -> any 25 (msg:"bulk spam delivery"; content:"lottery"; nocase; sid:5901; classtype:spam;)
alert tcp $HOME_NET any -> any 80 (msg:"http flood"; flags:S; threshold:type both, track by_src, count 30, seconds 10; sid:5902; classtype:ddos;)
`)
	return b.String()
}

// wireName renders a domain in DNS wire format with |xx| hex length bytes,
// suitable for a content: pattern.
func wireName(dom string) string {
	var b strings.Builder
	for _, label := range strings.Split(dom, ".") {
		fmt.Fprintf(&b, "|%02x|%s", len(label), label)
	}
	return b.String()
}

// StartPopulation schedules cover-traffic generation over the horizon,
// including the background Internet scanner when configured.
func (l *Lab) StartPopulation(horizon time.Duration) {
	l.Pop.Run(horizon)
	if l.Cfg.BackgroundScanRate > 0 {
		targets := append(l.PopulationAddrs(), ClientAddr)
		l.Pop.ScheduleBackgroundScanner(l.ScannerHost, targets, l.Cfg.BackgroundScanRate, horizon)
	}
}

// Run drains the simulator.
func (l *Lab) Run() int { return l.Sim.Run() }

// RunFor advances virtual time by d.
func (l *Lab) RunFor(d time.Duration) int { return l.Sim.RunFor(d) }

// PopulationAddrs lists the cover users' addresses.
func (l *Lab) PopulationAddrs() []netip.Addr {
	out := make([]netip.Addr, len(l.Population))
	for i, u := range l.Population {
		out[i] = u.Host.Addr
	}
	return out
}

// SiteAddr returns the address a site is truly hosted at.
func (l *Lab) SiteAddr(site string) netip.Addr {
	for _, s := range l.CensoredSites {
		if s == site {
			return SensitiveAddr
		}
	}
	return WebAddr
}
