package sim

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// mathRand is the stream NewRNG(seed, name) must reproduce: math/rand's
// source seeded with the FNV-1a hash of name xor seed.
func mathRand(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(int64(h.Sum64()) ^ seed))
}

// edgeSeeds are the seeds at the edges of math/rand's seed
// normalization: zero, ±1, ±(2^31−1), a multiple of 2^31−1 (both of
// which normalize to 89482311) and the int64 extremes.
var edgeSeeds = []int64{0, 1, -1, int32max, -int32max, 3 * int32max, math.MinInt64, math.MaxInt64}

// TestRNGMatchesMathRand pins every stream to math/rand: interleaved
// draws of each kind, a fork, and a reseed give the values the eagerly
// seeded source gives at the same draw index. Each case draws more
// than 607 values before and after its reseed, so the register wraps;
// the reseed hands the source the case's seed unhashed.
func TestRNGMatchesMathRand(t *testing.T) {
	type tc struct {
		seed int64
		name string
	}
	cases := []tc{{1, "vmm"}, {1, "cloud"}, {42, "workload"}, {-7, ""}, {1 << 40, "vc1-app-048"}}
	for _, seed := range edgeSeeds {
		cases = append(cases, tc{seed, "edge"})
	}
	for _, c := range cases {
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
		for i := 0; i < 2*rngLen; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d name %q reseeded draw %d: got %d, want %d", c.seed, c.name, i, g, w)
			}
		}
	}
}

// TestRNGSeedsAtFirstDraw: building a stream, or forking one, computes
// no register; the first draw allocates it.
func TestRNGSeedsAtFirstDraw(t *testing.T) {
	r := NewRNG(1, "root")
	if r.src.reg != nil {
		t.Fatal("NewRNG built a register before any draw")
	}
	child := r.Fork("child")
	if r.src.reg == nil {
		t.Fatal("Fork drew from the parent without a register")
	}
	if child.src.reg != nil {
		t.Fatal("Fork built the child's register before any draw")
	}
	child.Float64()
	if child.src.reg == nil {
		t.Fatal("a draw left the source without a register")
	}
}

// TestRNGDrawAllocs: a stream's first draws allocate its register and
// nothing else.
func TestRNGDrawAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() {
		r := NewRNG(1, "root")
		for i := 0; i < 50; i++ {
			r.Float64()
		}
	}); allocs != 3 { // the RNG, its rand.Rand and the register
		t.Fatalf("building a stream and drawing 50 values allocates %v times, want 3", allocs)
	}
}

// FuzzRNGMatchesMathRand: the fuzzer's bytes pick a seed, a name and a
// sequence of draws of every kind, forks (later draws come from the
// child) and reseeds (with the seed plus the op's argument, unhashed).
// Every value must be the one mathRand gives.
func FuzzRNGMatchesMathRand(f *testing.F) {
	mixed := make([]byte, 3*rngLen)
	for i := range mixed {
		mixed[i] = byte(i * 37)
	}
	wrap := bytes.Repeat([]byte{1}, 2*rngLen+1) // Uint64 only: the register wraps
	wrap[rngLen] = 8                            // one reseed with the seed itself
	for _, seed := range edgeSeeds {
		f.Add(seed, "edge", []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6})
		f.Add(seed, "", wrap)
	}
	f.Add(int64(1), "vmm", mixed)
	const ops = 9
	f.Fuzz(func(t *testing.T, seed int64, name string, seq []byte) {
		got, want := NewRNG(seed, name), mathRand(seed, name)
		for i, op := range seq {
			arg := int(op / ops)
			var g, w any
			switch op % ops {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				g, w = got.Float64(), want.Float64()
			case 3:
				n := 1 + arg<<(arg%32) // spans Intn's 31- and 63-bit paths
				g, w = got.Intn(n), want.Intn(n)
			case 4:
				g, w = got.ExpFloat64(), want.ExpFloat64()
			case 5:
				g, w = got.NormFloat64(), want.NormFloat64()
			case 6:
				if gp, wp := got.Perm(arg), want.Perm(arg); !slices.Equal(gp, wp) {
					t.Fatalf("op %d: Perm(%d) = %v, want %v", i, arg, gp, wp)
				}
			case 7:
				got, want = got.Fork(name), mathRand(want.Int63(), name)
			case 8:
				got.Seed(seed + int64(arg))
				want.Seed(seed + int64(arg))
			}
			if g != w {
				t.Fatalf("op %d (%d): got %v, want %v", i, op%ops, g, w)
			}
		}
	})
}

// rngSink keeps BenchmarkRNGSeedAnd50Draws' draws live.
var rngSink float64

// BenchmarkRNGSeedAnd50Draws measures building a stream and drawing 50
// values from it, the 10–50 draws a run's typical stream makes
// (recorded in BENCH_run.json).
func BenchmarkRNGSeedAnd50Draws(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRNG(int64(i), "vmm")
		for j := 0; j < 50; j++ {
			rngSink += r.Float64()
		}
	}
}
