package measured

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"safemeasure/internal/campaign"
	"safemeasure/internal/telemetry"
)

// fetchBody performs one GET /measure and returns the full NDJSON body.
func fetchBody(t *testing.T, srv *httptest.Server, query string) []byte {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/measure?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /measure?%s = %d: %s", query, resp.StatusCode, body)
	}
	return body
}

// TestCachedResponseByteIdentical is the PR's determinism contract: a cache
// hit returns bytes identical to a fresh run, across worker counts, with
// real (simulated-lab) execution — run under -race by scripts/verify.sh.
func TestCachedResponseByteIdentical(t *testing.T) {
	const query = "technique=overt-dns&scenario=dns-poison&trials=3&seed=7&client=det"
	var bodies [][]byte
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			svc := New(Config{Workers: workers, Metrics: reg})
			defer svc.Shutdown(context.Background())
			srv := httptest.NewServer(svc.Handler())
			defer srv.Close()

			cold := fetchBody(t, srv, query)
			if reg.Counter("measured_cache_hits_total").Value() != 0 {
				t.Fatal("cold request counted cache hits")
			}
			if got := reg.Counter("measured_cache_misses_total").Value(); got != 3 {
				t.Fatalf("cold misses = %d, want 3", got)
			}
			warm := fetchBody(t, srv, query)
			if !bytes.Equal(cold, warm) {
				t.Fatalf("cached response differs from fresh run:\ncold: %s\nwarm: %s", cold, warm)
			}
			if got := reg.Counter("measured_cache_hits_total").Value(); got != 3 {
				t.Fatalf("warm hits = %d, want 3", got)
			}
			// 3 record lines + 1 aggregate frame, aggregate last.
			lines := strings.Split(strings.TrimRight(string(cold), "\n"), "\n")
			if len(lines) != 4 {
				t.Fatalf("NDJSON lines = %d, want 4:\n%s", len(lines), cold)
			}
			if !strings.Contains(lines[3], `"aggregate"`) {
				t.Fatalf("last line is not the aggregate frame: %s", lines[3])
			}
			bodies = append(bodies, cold)
		})
	}
	// Worker count must not leak into bytes either: the same request served
	// by a 1-worker and an 8-worker service is identical.
	if len(bodies) == 2 && !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("response depends on worker count:\nw1: %s\nw8: %s", bodies[0], bodies[1])
	}
}

// TestCrossClientCacheSharing: the cache is service-wide — client B's
// identical request is served from client A's completed runs, byte for byte.
func TestCrossClientCacheSharing(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := New(Config{Workers: 2, Metrics: reg})
	defer svc.Shutdown(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	a := fetchBody(t, srv, "technique=spam&scenario=dns-poison&trials=2&seed=3&client=alice")
	b := fetchBody(t, srv, "technique=spam&scenario=dns-poison&trials=2&seed=3&client=bob")
	if !bytes.Equal(a, b) {
		t.Fatal("cross-client cached response not byte-identical")
	}
	if got := reg.Counter("measured_cache_hits_total").Value(); got != 2 {
		t.Fatalf("cache hits = %d, want 2", got)
	}
	// A different seed is a different identity: no hit, different bytes.
	c := fetchBody(t, srv, "technique=spam&scenario=dns-poison&trials=2&seed=4&client=bob")
	if bytes.Equal(a, c) {
		t.Fatal("different seed produced identical bytes")
	}
	if got := reg.Counter("measured_cache_hits_total").Value(); got != 2 {
		t.Fatalf("cache hits after different seed = %d, want still 2", got)
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	s1 := trialSpec(1)
	s2 := trialSpec(2)
	s3 := trialSpec(3)
	c.put(s1.CellKey(), []byte("1\n"), campaign.ErrorRecord(s1, ErrDraining))
	c.put(s2.CellKey(), []byte("2\n"), campaign.ErrorRecord(s2, ErrDraining))
	if _, ok := c.get(s1.CellKey()); !ok {
		t.Fatal("s1 evicted too early")
	}
	// s2 is now LRU; inserting s3 evicts it.
	c.put(s3.CellKey(), []byte("3\n"), campaign.ErrorRecord(s3, ErrDraining))
	if _, ok := c.get(s2.CellKey()); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := c.get(s1.CellKey()); !ok {
		t.Fatal("recently-used entry evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// TestResultCacheNonPositiveBoundClamped is the regression test for the
// self-defeating cache: newResultCache(0) (or any negative bound) used to
// build a cache whose eviction loop expelled every entry the moment put
// inserted it, so get never hit. The bound now clamps to 1.
func TestResultCacheNonPositiveBoundClamped(t *testing.T) {
	for _, max := range []int{0, -1, -100} {
		c := newResultCache(max)
		s1 := trialSpec(1)
		c.put(s1.CellKey(), []byte("1\n"), campaign.ErrorRecord(s1, ErrDraining))
		if _, ok := c.get(s1.CellKey()); !ok {
			t.Fatalf("newResultCache(%d): entry evicted on insert", max)
		}
		if c.len() != 1 {
			t.Fatalf("newResultCache(%d): len = %d, want 1", max, c.len())
		}
		// The clamped bound still evicts: a second insert displaces the first.
		s2 := trialSpec(2)
		c.put(s2.CellKey(), []byte("2\n"), campaign.ErrorRecord(s2, ErrDraining))
		if _, ok := c.get(s1.CellKey()); ok {
			t.Fatalf("newResultCache(%d): bound not enforced after clamp", max)
		}
	}
}

// TestCacheDisabledByNegativeConfig: CacheMax < 0 is the explicit opt-out —
// the service runs every request fresh and never counts a hit, while
// in-flight dedupe still collapses concurrent identical requests.
func TestCacheDisabledByNegativeConfig(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := New(Config{Workers: 2, CacheMax: -1, Metrics: reg})
	defer svc.Shutdown(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const query = "technique=spam&scenario=dns-poison&trials=2&seed=3&client=nocache"
	a := fetchBody(t, srv, query)
	b := fetchBody(t, srv, query)
	if !bytes.Equal(a, b) {
		t.Fatal("repeated run not byte-identical with cache disabled")
	}
	if got := reg.Counter("measured_cache_hits_total").Value(); got != 0 {
		t.Fatalf("cache hits with caching disabled = %d, want 0", got)
	}
	if got := reg.Counter("measured_cache_misses_total").Value(); got != 4 {
		t.Fatalf("cache misses = %d, want 4 (both requests ran fresh)", got)
	}
}
