package faults

import "math/rand"

// math/rand's default source (rand.NewSource) is an additive lagged
// Fibonacci generator over a register of rngLen words with tap rngTap. Its
// Seed fills the register from a Park–Miller MINSTD chain: it normalises the
// seed into x_0, discards seedWarm steps, and XORs three 20-bit-shifted
// states into each word together with a fixed table, rngCooked. That is
// 20 + 3*607 = 1,841 steps and 607 stores per Seed, nearly all the cost of a
// fault sub-stream that then draws one to three values.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	minstdM  = 1<<31 - 1 // MINSTD modulus, a prime
	minstdA  = 48271     // MINSTD multiplier
	seedWarm = 20
)

var (
	// minstdPow[k] is minstdA^k mod minstdM, so the k-th MINSTD state after
	// x_0 is x_0*minstdPow[k] mod minstdM. Both factors are below 2^31, so the
	// product is exact in a uint64.
	minstdPow [seedWarm + 3*rngLen + 1]uint64
	// rngCooked is math/rand's unexported table of the same name.
	rngCooked [rngLen]int64
)

func init() {
	minstdPow[0] = 1
	for k := 1; k < len(minstdPow); k++ {
		minstdPow[k] = minstdPow[k-1] * minstdA % minstdM
	}
	rngCooked = deriveCooked()
}

// minstdWord is register word i that Seed builds from the normalised seed
// x0, before the XOR with rngCooked[i]: MINSTD states 21+3i, 22+3i and
// 23+3i shifted left by 40, 20 and 0 bits.
func minstdWord(x0 uint64, i int) int64 {
	k := seedWarm + 1 + 3*i
	a := x0 * minstdPow[k] % minstdM
	b := x0 * minstdPow[k+1] % minstdM
	c := x0 * minstdPow[k+2] % minstdM
	return int64(a<<40 ^ b<<20 ^ c)
}

// deriveCooked recovers rngCooked from math/rand itself instead of restating
// its 607 literals. A draw moves tap and feed back one word and adds
// vec[tap] into vec[feed]; over rngLen draws feed visits every word once, so
// after them the register holds exactly the outputs, each where its draw
// stored it. Undoing the draws newest first (vec[feed] -= vec[tap]) walks
// that register back to the one Seed(1) built, and XOR-ing out seed 1's
// MINSTD words leaves the table.
func deriveCooked() (cooked [rngLen]int64) {
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]int64
	tap, feed := 0, rngLen-rngTap
	for range rngLen {
		tap = (tap + rngLen - 1) % rngLen
		feed = (feed + rngLen - 1) % rngLen
		vec[feed] = int64(src.Uint64())
	}
	// rngLen steps back is a full turn: tap and feed are where the last
	// draw used them.
	for range rngLen {
		vec[feed] -= vec[tap]
		tap = (tap + 1) % rngLen
		feed = (feed + 1) % rngLen
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ minstdWord(1, i)
	}
	return cooked
}

// lazySource returns exactly what rand.NewSource returns for every seed, but
// its Seed is O(1): it keeps the normalised seed and builds a register word
// only when a draw first reads it, three multiply-mods against minstdPow.
// Draw k (from 1) reads feed word 334-k and tap word 607-k. No earlier draw
// has touched the feed word while k <= 334 or the tap word while k <= 273;
// every later read finds a word an earlier draw wrote. A stream of n draws
// therefore builds at most 2n words. Seed before the first draw.
type lazySource struct {
	x0        uint64 // normalised seed: MINSTD state 0
	tap, feed int
	drawn     int // draws since Seed, counted up to rngLen-rngTap
	vec       [rngLen]int64
}

// Seed applies math/rand's seed normalisation and resets the indices.
func (s *lazySource) Seed(seed int64) {
	seed %= minstdM
	if seed < 0 {
		seed += minstdM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed, s.drawn = 0, rngLen-rngTap, 0
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 is math/rand's rngSource.Uint64 with the first-read builds.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.drawn < rngLen-rngTap {
		s.vec[s.feed] = minstdWord(s.x0, s.feed) ^ rngCooked[s.feed]
		if s.drawn < rngTap {
			s.vec[s.tap] = minstdWord(s.x0, s.tap) ^ rngCooked[s.tap]
		}
		s.drawn++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
