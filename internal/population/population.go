// Package population generates the innocuous "population" traffic the
// paper's techniques hide in: web browsing over a Zipf-ish site catalog
// (occasionally touching censored sites, as the Syrian logs show real
// populations do), DNS lookups, mail, and P2P chatter.
//
// The generator drives real protocol stacks in virtual time, so population
// flows exercise the same codecs, middleboxes, and taps as measurement
// traffic — an IDS cannot tell them apart by implementation artifacts.
package population

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"safemeasure/internal/dnssim"
	"safemeasure/internal/dnswire"
	"safemeasure/internal/httpwire"
	"safemeasure/internal/mailsim"
	"safemeasure/internal/netsim"
	"safemeasure/internal/packet"
	"safemeasure/internal/smtpwire"
	"safemeasure/internal/tcpsim"
	"safemeasure/internal/websim"
)

// Rates are mean events per simulated second, per user.
type Rates struct {
	Web  float64
	DNS  float64
	Mail float64
	P2P  float64
}

// DefaultRates model light browsing with background chatter.
func DefaultRates() Rates {
	return Rates{Web: 0.5, DNS: 0.8, Mail: 0.02, P2P: 0.3}
}

// Config wires the generator to the lab's servers.
type Config struct {
	Sites             []string // innocuous site catalog
	CensoredSites     []string // sites the censor blocks
	CensoredVisitProb float64  // per-web-event probability of a censored visit
	WebServer         netip.Addr
	// CensoredWebServer hosts the censored sites; zero falls back to
	// WebServer. Visits there leave the same metadata trail real users
	// leave (the Syrian-log 1.57 % effect).
	CensoredWebServer netip.Addr
	DNSServer         netip.Addr
	MailServer        netip.Addr
	P2PPeer           netip.Addr
	Rates             Rates
	Seed              int64
}

// User is one population member with its protocol endpoints.
type User struct {
	Host  *netsim.Host
	Stack *tcpsim.Stack
	DNS   *dnssim.Client
}

// Site popularity follows a Zipf-Mandelbrot law: rank r is visited with
// probability proportional to 1/(zipfV+r)^zipfS. Web request popularity is
// famously Zipf-like (Breslau et al., INFOCOM '99, measured exponents of
// 0.64–0.83); Go's rand.Zipf requires s > 1, so the catalog uses the
// smallest head-heavy exponent above that bound rather than an ad-hoc skew.
const (
	zipfS = 1.2
	zipfV = 1.0
)

// Generator schedules population activity.
type Generator struct {
	sim      *netsim.Sim
	cfg      Config
	rng      *rand.Rand
	siteZipf *rand.Zipf
	users    []User

	// Stats.
	WebVisits      int
	CensoredVisits int
	DNSQueries     int
	MailsSent      int
	P2PPackets     int
	ScanProbes     int
}

// New creates a generator.
func New(sim *netsim.Sim, cfg Config) *Generator {
	g := &Generator{sim: sim, cfg: cfg, rng: netsim.NewRand(cfg.Seed)}
	if len(cfg.Sites) > 0 {
		g.siteZipf = rand.NewZipf(g.rng, zipfS, zipfV, uint64(len(cfg.Sites)-1))
	}
	return g
}

// AddUser registers a population member.
func (g *Generator) AddUser(u User) { g.users = append(g.users, u) }

// Users returns the registered members.
func (g *Generator) Users() []User { return g.users }

// Run schedules event streams for every user over the horizon. Call before
// driving the simulator.
func (g *Generator) Run(horizon time.Duration) {
	for i := range g.users {
		u := g.users[i]
		g.schedule(u, g.cfg.Rates.Web, horizon, func() { g.browse(u) })
		g.schedule(u, g.cfg.Rates.DNS, horizon, func() { g.lookup(u) })
		g.schedule(u, g.cfg.Rates.Mail, horizon, func() { g.mail(u) })
		g.schedule(u, g.cfg.Rates.P2P, horizon, func() { g.p2p(u) })
	}
}

// schedule lays out a Poisson event stream of the given rate.
func (g *Generator) schedule(u User, rate float64, horizon time.Duration, fire func()) {
	if rate <= 0 {
		return
	}
	at := time.Duration(0)
	for {
		gap := time.Duration(g.rng.ExpFloat64() / rate * float64(time.Second))
		at += gap
		if at >= horizon {
			return
		}
		g.sim.Schedule(at, fire)
	}
}

// pickSite selects a site, occasionally a censored one.
func (g *Generator) pickSite() (string, bool) {
	if len(g.cfg.CensoredSites) > 0 && g.rng.Float64() < g.cfg.CensoredVisitProb {
		return g.cfg.CensoredSites[g.rng.Intn(len(g.cfg.CensoredSites))], true
	}
	if g.siteZipf == nil {
		return "default.test", false
	}
	// Catalog order is popularity rank: rank 0 is the most-visited site.
	return g.cfg.Sites[g.siteZipf.Uint64()], false
}

func (g *Generator) browse(u User) {
	if u.Stack == nil || !g.cfg.WebServer.IsValid() {
		return
	}
	site, censored := g.pickSite()
	g.WebVisits++
	server := g.cfg.WebServer
	if censored {
		g.CensoredVisits++
		if g.cfg.CensoredWebServer.IsValid() {
			server = g.cfg.CensoredWebServer
		}
	}
	path := fmt.Sprintf("/page%d", g.rng.Intn(50))
	websim.Get(u.Stack, server, site, path, func(*httpwire.Response, error) {})
}

func (g *Generator) lookup(u User) {
	if u.DNS == nil || !g.cfg.DNSServer.IsValid() {
		return
	}
	site, _ := g.pickSite()
	g.DNSQueries++
	u.DNS.Query(g.cfg.DNSServer, site, dnswire.TypeA, func(*dnswire.Message, error) {})
}

func (g *Generator) mail(u User) {
	if u.Stack == nil || !g.cfg.MailServer.IsValid() {
		return
	}
	g.MailsSent++
	msg := &smtpwire.Message{
		From:    fmt.Sprintf("user%d@%s", g.rng.Intn(1000), "campus.test"),
		To:      fmt.Sprintf("friend%d@example.test", g.rng.Intn(1000)),
		Subject: "meeting notes",
		Body:    "see you tomorrow, thanks",
	}
	mailsim.SendMail(u.Stack, g.cfg.MailServer, "campus.test", msg, func(error) {})
}

// ScheduleBackgroundScanner emits SYN probes from an external host toward
// random targets — the Internet's constant scanning background (Durumeric
// et al.: 10.8M scans hit one darknet in a month). Measurement scans hide
// in exactly this noise.
func (g *Generator) ScheduleBackgroundScanner(scanner *netsim.Host, targets []netip.Addr, rate float64, horizon time.Duration) {
	if scanner == nil || len(targets) == 0 || rate <= 0 {
		return
	}
	ports := []uint16{22, 23, 80, 443, 445, 3389, 8080, 5900}
	at := time.Duration(0)
	for {
		gap := time.Duration(g.rng.ExpFloat64() / rate * float64(time.Second))
		at += gap
		if at >= horizon {
			return
		}
		dst := targets[g.rng.Intn(len(targets))]
		port := ports[g.rng.Intn(len(ports))]
		seq := uint32(g.rng.Int31())
		g.sim.Schedule(at, func() {
			g.ScanProbes++
			syn := &packet.TCP{SrcPort: uint16(30000 + g.rng.Intn(20000)), DstPort: port, Seq: seq, Flags: packet.TCPSyn, Window: 1024}
			if raw, err := packet.BuildTCP(scanner.Addr, dst, packet.DefaultTTL, syn); err == nil {
				scanner.SendIP(raw)
			}
		})
	}
}

func (g *Generator) p2p(u User) {
	if u.Host == nil || !g.cfg.P2PPeer.IsValid() {
		return
	}
	g.P2PPackets++
	junk := make([]byte, 64+g.rng.Intn(512))
	g.rng.Read(junk)
	u.Host.SendUDP(6881, g.cfg.P2PPeer, 6881, junk)
}
