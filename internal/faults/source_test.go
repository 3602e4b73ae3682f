package faults

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds is the differential seed set: the normalisation edge cases
// (0, negatives, multiples of 2^31-1 and their neighbours, the int64
// extremes, the seed 0 maps to) and 1,000 random int64s of both signs.
func sourceSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, -2, 89482311, -89482311, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for k := int64(-3); k <= 3; k++ {
		seeds = append(seeds, k*minstdM, k*minstdM+1, k*minstdM-1)
	}
	seeds = append(seeds, math.MaxInt64/minstdM*minstdM, math.MinInt64/minstdM*minstdM)
	r := rand.New(rand.NewSource(20250101))
	for range 1000 {
		s := r.Int63()
		if r.Intn(2) == 0 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// drawsPerSeed reaches past the draw where the tap index first reads a
// word the feed wrote (274), the last first-read build (334) and the full
// register wrap (607), twice over.
const drawsPerSeed = 1300

// TestLazySourceDifferential: for every seed, lazySource's raw Uint64 and
// Int63 draws, and a rand.Rand's ExpFloat64 and Float64 over it, equal
// rand.NewSource's bit for bit. One lazySource serves every seed, as in
// Generate, so each Seed lands on a register the previous seed filled.
func TestLazySourceDifferential(t *testing.T) {
	lazy := new(lazySource)
	lazyRand := rand.New(lazy)
	for _, seed := range sourceSeeds() {
		ref := rand.NewSource(seed).(rand.Source64)
		lazy.Seed(seed)
		for d := range drawsPerSeed {
			var got, want uint64
			if d%2 == 0 {
				got, want = lazy.Uint64(), ref.Uint64()
			} else {
				got, want = uint64(lazy.Int63()), uint64(ref.Int63())
			}
			if got != want {
				t.Fatalf("seed %d draw %d: lazySource %#x, rand.NewSource %#x", seed, d, got, want)
			}
		}

		refRand := rand.New(rand.NewSource(seed))
		lazyRand.Seed(seed)
		for d := range drawsPerSeed {
			var got, want float64
			if d%2 == 0 {
				got, want = lazyRand.ExpFloat64(), refRand.ExpFloat64()
			} else {
				got, want = lazyRand.Float64(), refRand.Float64()
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d rand.Rand draw %d: lazySource %v, rand.NewSource %v", seed, d, got, want)
			}
		}
	}
}

// TestLazySourceDifferentialReseedMidStream re-seeds after n draws, for n
// on both sides of every first-read boundary, and checks the next stream:
// no word the first seed built may leak into the second.
func TestLazySourceDifferentialReseedMidStream(t *testing.T) {
	const first, second = 42, -7
	for _, n := range []int{0, 1, 2, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1214} {
		lazy := new(lazySource)
		lazy.Seed(first)
		for range n {
			lazy.Uint64()
		}
		lazy.Seed(second)
		ref := rand.NewSource(second).(rand.Source64)
		for d := range drawsPerSeed {
			if got, want := lazy.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("re-seeded after %d draws, draw %d: lazySource %#x, rand.NewSource %#x", n, d, got, want)
			}
		}
	}
}

// TestLazySourceDifferentialCookedRecurrence checks deriveCooked without the
// source's tap/feed bookkeeping. rand.NewSource's outputs are the additive
// lagged Fibonacci sequence y_n = y_{n-607} + y_{n-273}, whose first 607
// terms are the seeded register in the order feed reads it (word 333 down
// to 0, then 606 down to 334) and whose later terms are the draws. Built
// from the derived table, that sequence must reproduce the draws of seed 1,
// which the table came from, and of seeds it did not. The first and last
// entries are also pinned to math/rand's rng.go literals.
func TestLazySourceDifferentialCookedRecurrence(t *testing.T) {
	if rngCooked[0] != -4181792142133755926 || rngCooked[rngLen-1] != 4152330101494654406 {
		t.Fatalf("rngCooked ends %d, %d; want math/rand's -4181792142133755926, 4152330101494654406",
			rngCooked[0], rngCooked[rngLen-1])
	}
	for _, seed := range []int64{1, 2, 42, 89482311, 1<<31 - 2} {
		y := make([]int64, rngLen, rngLen+drawsPerSeed)
		for j := range rngLen {
			i := (rngLen - rngTap - 1 - j + rngLen) % rngLen
			y[j] = minstdWord(uint64(seed), i) ^ rngCooked[i]
		}
		ref := rand.NewSource(seed).(rand.Source64)
		for d := range drawsPerSeed {
			n := len(y)
			y = append(y, y[n-rngLen]+y[n-rngTap])
			if got, want := uint64(y[n]), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: recurrence %#x, rand.NewSource %#x", seed, d, got, want)
			}
		}
	}
}
