package sim

import "math/rand"

// RNG is a deterministic random stream. Each simulated component derives
// its own stream from the master seed and a stable name, so adding or
// reordering components does not perturb the draws seen by others —
// a standard variance-reduction discipline for simulation studies.
//
// Every value is the one rand.New(rand.NewSource(seed)) gives at the
// same draw index, but a stream never seeds math/rand's source: seeding
// it computes all 607 register words, while a stream typically draws
// 10–50 values. The stream's own source computes each register word at
// its first use instead, and allocates its register at the first draw,
// so a stream that never draws costs no register.
type RNG struct {
	*rand.Rand
	src lazySource
}

// NewRNG returns a stream derived from seed and a stable component name.
func NewRNG(seed int64, name string) *RNG {
	r := &RNG{}
	r.src.Seed(int64(fnv64a(name)) ^ seed)
	r.Rand = rand.New(&r.src)
	return r
}

// Fork derives a sub-stream, e.g. per-VM or per-application.
func (r *RNG) Fork(name string) *RNG {
	return NewRNG(r.Int63(), name)
}

// Range returns a uniform draw in [lo, hi]. It panics if hi < lo.
func (r *RNG) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("sim: RNG.Range with hi < lo")
	}
	if hi == lo {
		return lo
	}
	return lo + r.Float64()*(hi-lo)
}

// math/rand's source is an additive lagged-Fibonacci generator: a
// register of rngLen words, each draw adding the word rngTap places
// behind the feed point into the word at it.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
)

// lazySource is math/rand's source with its register words computed on
// demand. Seeding word i sets it to
//
//	x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ cooked[i]
//
// where x[k] = s·48271^k mod (2^31−1) is math/rand's seed chain for the
// normalized seed s. The words a draw touches for the first time follow
// from the draw count alone: draw n (from 1) first meets the word at
// the feed point while n <= rngLen-rngTap, and the word at the tap
// while n <= rngTap. cold counts the draws left that meet a word not
// yet computed.
type lazySource struct {
	seed      uint64 // normalized into [1, 2^31−2]
	tap, feed int
	cold      int
	reg       *[rngLen]int64 // nil until the first draw
}

// Seed reseeds as math/rand's source does, computing no register word.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap, s.feed, s.cold = 0, rngLen-rngTap, rngLen-rngTap
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.cold > 0 {
		if s.reg == nil {
			s.reg = new([rngLen]int64)
		}
		s.reg[s.feed] = seedWord(s.seed, s.feed)
		if s.cold > rngLen-2*rngTap { // draw n <= rngTap
			s.reg[s.tap] = seedWord(s.seed, s.tap)
		}
		s.cold--
	}
	x := s.reg[s.feed] + s.reg[s.tap]
	s.reg[s.feed] = x
	return uint64(x)
}

// seedTab holds, for each register word, the three powers of 48271 its
// seed chain multiplies the seed by, and the cooked value math/rand
// XORs in.
var seedTab = newSeedTab()

type seedEntry struct {
	pow    [3]uint64 // 48271^(21+3i+j) mod (2^31−1)
	cooked int64
}

// seedWord is register word i of math/rand's source seeded with s.
func seedWord(s uint64, i int) int64 {
	e := &seedTab[i]
	return e.chain(s) ^ e.cooked
}

// chain is the word's seed-chain part for seed s.
func (e *seedEntry) chain(s uint64) int64 {
	return int64(s*e.pow[0]%int32max)<<40 ^ int64(s*e.pow[1]%int32max)<<20 ^ int64(s*e.pow[2]%int32max)
}

// newSeedTab builds the seed table. math/rand does not export its
// cooked values, so they are recovered from its source seeded with 1:
// its first rngLen outputs determine the initial register, and XORing
// out the seed chain of 1 leaves the cooked values.
func newSeedTab() (tab [rngLen]seedEntry) {
	p := uint64(1)
	for k := 1; k <= 20; k++ {
		p = p * 48271 % int32max
	}
	for i := range tab {
		for j := range tab[i].pow {
			p = p * 48271 % int32max
			tab[i].pow[j] = p
		}
	}

	// Draw n adds the word at the tap, 607-n, into the word at the feed
	// point, 334-n (both mod rngLen), and returns the sum. Outputs 274
	// to 334 and 335 to 607 add a word that draw n-273 wrote into a word
	// no draw wrote yet, so they give words 60..0 and 606..334; outputs 1
	// to 273 then give words 333..61 from words 606..334.
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64 // out[n] is draw n's output
	for n := 1; n <= rngLen; n++ {
		out[n] = int64(src.Uint64())
	}
	var reg [rngLen]int64
	feed0 := rngLen - rngTap
	for n := rngTap + 1; n <= rngLen; n++ {
		reg[(feed0-n+rngLen)%rngLen] = out[n] - out[n-rngTap]
	}
	for n := 1; n <= rngTap; n++ {
		reg[feed0-n] = out[n] - reg[rngLen-n]
	}
	for i := range tab {
		tab[i].cooked = reg[i] ^ tab[i].chain(1)
	}
	return tab
}

// fnv64a is the 64-bit FNV-1a hash of name.
func fnv64a(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}
