package sim

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// mathRand is the stream NewRNG(seed, name) must reproduce: math/rand's
// source seeded with the FNV-1a hash of name xor seed.
func mathRand(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(int64(h.Sum64()) ^ seed))
}

// TestRNGMatchesMathRand pins every stream to math/rand: interleaved
// draws of each kind, a fork, and a reseed give the values the eagerly
// seeded source gives at the same draw index.
func TestRNGMatchesMathRand(t *testing.T) {
	for _, c := range []struct {
		seed int64
		name string
	}{{1, "vmm"}, {1, "cloud"}, {42, "workload"}, {-7, ""}, {1 << 40, "vc1-app-048"}} {
		got, want := NewRNG(c.seed, c.name), mathRand(c.seed, c.name)
		for i := 0; i < 50; i++ {
			g := []any{got.Int63(), got.Uint64(), got.Float64(), got.Intn(1000), got.ExpFloat64(), got.NormFloat64()}
			w := []any{want.Int63(), want.Uint64(), want.Float64(), want.Intn(1000), want.ExpFloat64(), want.NormFloat64()}
			for k := range g {
				if g[k] != w[k] {
					t.Fatalf("seed %d name %q draw %d.%d: got %v, want %v", c.seed, c.name, i, k, g[k], w[k])
				}
			}
			gp, wp := got.Perm(8), want.Perm(8)
			for k := range gp {
				if gp[k] != wp[k] {
					t.Fatalf("seed %d name %q draw %d: Perm %v, want %v", c.seed, c.name, i, gp, wp)
				}
			}
		}
		fork, wantFork := got.Fork("child"), mathRand(want.Int63(), "child")
		for i := 0; i < 20; i++ {
			if g, w := fork.Int63(), wantFork.Int63(); g != w {
				t.Fatalf("seed %d name %q fork draw %d: got %d, want %d", c.seed, c.name, i, g, w)
			}
		}
		got.Seed(c.seed)
		want.Seed(c.seed)
		for i := 0; i < 20; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d name %q reseeded draw %d: got %d, want %d", c.seed, c.name, i, g, w)
			}
		}
	}
}

// TestRNGSeedsAtFirstDraw: building a stream, or forking one, seeds
// nothing; the first draw does.
func TestRNGSeedsAtFirstDraw(t *testing.T) {
	r := NewRNG(1, "root")
	if r.src.src != nil {
		t.Fatal("NewRNG seeded math/rand's source before any draw")
	}
	child := r.Fork("child")
	if r.src.src == nil {
		t.Fatal("Fork drew from the parent without seeding it")
	}
	if child.src.src != nil {
		t.Fatal("Fork seeded the child before any draw")
	}
	child.Float64()
	if child.src.src == nil {
		t.Fatal("a draw left the source unseeded")
	}
}
