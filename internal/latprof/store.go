package latprof

import (
	"math/bits"

	"vsched/internal/sim"
)

// spanRec is a closed span as the profiler keeps it: fixed-size and
// pointer-free, so a profile's spans cost the garbage collector nothing to
// scan. Profile.Span rebuilds the Span value from it.
type spanRec struct {
	start, end sim.Time
	Breakdown
	taskID, wakerID int64
	// task indexes the profile's task names. migrations saturates at
	// MaxUint32.
	task, migrations uint32
	// blame and nblame locate the span's steal blame in the blame store,
	// sorted as StealBy lists it.
	blame, nblame uint32
}

func (r *spanRec) wall() sim.Duration { return r.end.Sub(r.start) }

// blameRec is one entity's share of a span's steal-wait; ent indexes the
// host fold's entity names (names).
type blameRec struct {
	wait sim.Duration
	ent  uint32
}

// A chunked store's chunks start at 1<<minChunkLog elements, so the many
// profilers of a fleet with few spans stay small, and double up to
// 1<<maxChunkLog, which caps the unused tail of the last chunk: chunk
// k < rampChunks holds 1<<(minChunkLog+k), every later one 1<<maxChunkLog,
// and the ramp chunks hold rampLen in all.
const (
	minChunkLog = 4
	maxChunkLog = 10
	rampChunks  = maxChunkLog - minChunkLog
	rampLen     = 1<<maxChunkLog - 1<<minChunkLog
)

// chunked is an append-only sequence kept in chunks that are allocated at
// their full size and never copied or resized, so growth allocates each
// element's bytes once and a view of the first n elements stays valid
// while the store grows.
type chunked[T any] struct {
	chunks [][]T
	n      int
}

// chunkOf locates element i: chunk k, offset off.
func chunkOf(i int) (k, off int) {
	if i < rampLen {
		k = bits.Len(uint(i>>minChunkLog+1)) - 1
		return k, i - (1<<k-1)<<minChunkLog
	}
	i -= rampLen
	return rampChunks + i>>maxChunkLog, i & (1<<maxChunkLog - 1)
}

func (s *chunked[T]) push(v T) {
	k, off := chunkOf(s.n)
	if k == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, 1<<(minChunkLog+min(k, rampChunks))))
	}
	s.chunks[k][off] = v
	s.n++
}

// at returns element i < n.
func (s *chunked[T]) at(i int) *T {
	k, off := chunkOf(i)
	return &s.chunks[k][off]
}

// each calls f on every element in order.
func (s *chunked[T]) each(f func(i int, v *T)) {
	i := 0
	for _, c := range s.chunks {
		for j := range c {
			if i == s.n {
				return
			}
			f(i, &c[j])
			i++
		}
	}
}

// view returns the store as it is now, sharing its storage: later pushes
// write only past the view's n and never into the chunk headers it holds.
func (s *chunked[T]) view() chunked[T] {
	return chunked[T]{chunks: s.chunks[:len(s.chunks):len(s.chunks)], n: s.n}
}
