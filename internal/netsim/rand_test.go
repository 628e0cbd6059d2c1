package netsim

import (
	"math"
	"math/rand"
	"testing"
)

// TestNewRandMatchesMathRand checks that NewRand reproduces
// rand.New(rand.NewSource(seed)) draw for draw: every seeded lab stream
// depends on it.
func TestNewRandMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, 1<<31 - 1, 1 << 31, -(1 << 31) + 1, 1 << 40,
		math.MinInt64, math.MaxInt64}
	draws := map[string]func(r *rand.Rand, i int) float64{
		"Int63":      func(r *rand.Rand, _ int) float64 { return float64(r.Int63()) },
		"Uint64":     func(r *rand.Rand, _ int) float64 { return float64(r.Uint64()) },
		"Float64":    func(r *rand.Rand, _ int) float64 { return r.Float64() },
		"ExpFloat64": func(r *rand.Rand, _ int) float64 { return r.ExpFloat64() },
		"Intn":       func(r *rand.Rand, i int) float64 { return float64(r.Intn(1 + i*i*i)) },
	}
	for _, seed := range seeds {
		for name, draw := range draws {
			got, want := NewRand(seed), rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				if g, w := draw(got, i), draw(want, i); g != w {
					t.Fatalf("seed %d: %s draw %d = %v, math/rand gives %v", seed, name, i, g, w)
				}
			}
		}
	}
	// A wider sweep over seeds. The first rngLen draws read every slot of
	// the seeded register, so they catch any seeding difference.
	for seed := int64(-3000); seed < 300000; seed += 7 {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < rngLen; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: draw %d = %d, math/rand gives %d", seed, i, g, w)
			}
		}
	}
}

// TestMulModMatchesDivision checks the Mersenne reduction against plain
// 64-bit remainder at the edges of its input range.
func TestMulModMatchesDivision(t *testing.T) {
	for _, x := range []uint64{1, 2, rngA, rngPrime - 2, rngPrime - 1, 1 << 30, 89482311} {
		for _, a := range []uint64{rngA, rngA2, rngA3, rngA20, rngPrime - 1} {
			if got, want := mulMod(x, a), x*a%rngPrime; got != want {
				t.Fatalf("mulMod(%d, %d) = %d, want %d", x, a, got, want)
			}
		}
	}
}
