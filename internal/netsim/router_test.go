package netsim

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"
)

// TestAddRouteOrderMatchesStableSort checks that AddRoute's insertion
// keeps the order a stable sort by descending prefix length gives the
// insertion sequence, so equal-length routes keep first-installed-wins
// lookup, for prefixes inserted in any order.
func TestAddRouteOrderMatchesStableSort(t *testing.T) {
	prefixes := []string{
		"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.0.0/16", "10.1.0.10/32",
		"10.1.0.20/32", "10.1.0.10/32", "10.1.1.0/24", "10.1.0.0/24", "198.51.100.0/24",
		"198.51.100.10/32", "203.0.113.0/24", "203.0.113.80/32", "203.0.113.0/25",
		"2001:db8::/32", "2001:db8::1/128",
	}
	dsts := []string{
		"10.1.0.10", "10.1.0.20", "10.1.0.30", "10.1.1.5", "10.2.0.1", "198.51.100.10",
		"198.51.100.11", "203.0.113.80", "203.0.113.200", "192.0.2.1", "2001:db8::1", "2001:db8::2",
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		order := rng.Perm(len(prefixes))
		r := NewRouter(NewSim(1), "r", netip.Addr{}, 4)
		var want []route
		for port, i := range order {
			pfx := netip.MustParsePrefix(prefixes[i])
			r.AddRoute(pfx, port)
			// The sort AddRoute used to run on every insert.
			want = append(want, route{prefix: pfx, port: port})
			sort.SliceStable(want, func(i, j int) bool {
				return want[i].prefix.Bits() > want[j].prefix.Bits()
			})
		}
		if len(r.routes) != len(want) {
			t.Fatalf("trial %d: %d routes, want %d", trial, len(r.routes), len(want))
		}
		for i := range want {
			if r.routes[i].prefix != want[i].prefix || r.routes[i].port != want[i].port {
				t.Fatalf("trial %d: route %d = %v→%d, want %v→%d", trial, i,
					r.routes[i].prefix, r.routes[i].port, want[i].prefix, want[i].port)
			}
		}
		for _, s := range dsts {
			dst := netip.MustParseAddr(s)
			wantPort := -1
			for _, rt := range want {
				if rt.prefix.Contains(dst) {
					wantPort = rt.port
					break
				}
			}
			if got := r.lookup(dst); got != wantPort {
				t.Fatalf("trial %d: lookup(%s) = %d, want %d", trial, dst, got, wantPort)
			}
		}
	}
}
