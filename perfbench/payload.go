package main

import (
	"encoding/binary"
	"math"

	"mpicomp/internal/datasets"
)

// maxWindowOffset bounds where a seeded window may start inside a
// generator's stream, in values. Every payload segment is a window of one
// Table III generator starting at a seed-drawn offset below this bound.
const maxWindowOffset = 1 << 18

// segmentValues is the length of one payload segment: 4 KB, a whole
// number of MPC chunks and ZFP blocks, so no codec block straddles two
// generators.
const segmentValues = 1024

// sources holds one value stream per Table III generator, long enough for
// any window a suite draws. Building it is set-up work.
type sources struct {
	streams [][]float32
}

// newSources generates the eight Table III streams.
func newSources() *sources {
	all := datasets.All()
	s := &sources{streams: make([][]float32, len(all))}
	for i, d := range all {
		s.streams[i] = d.Values(maxWindowOffset + segmentValues)
	}
	return s
}

// splitmix64 is the seed mixer for window offsets.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// payload returns n float32 values for one rank of one cell, made of
// segments that cycle through the eight generators, each segment a window
// at an offset the seed selects. Many short windows per payload keep its
// compressibility and codec cost nearly the same from seed to seed while
// its bytes change. Segment i comes from the same generator on every
// rank, so a reduction adds values of one dataset's scale.
func (s *sources) payload(seed uint64, cell, rank, n int) []float32 {
	out := make([]float32, n)
	k := len(s.streams)
	for i, lo := 0, 0; lo < n; i, lo = i+1, lo+segmentValues {
		hi := min(lo+segmentValues, n)
		h := splitmix64(seed ^ splitmix64(uint64(cell)<<40|uint64(rank)<<24|uint64(i)))
		off := int(h % maxWindowOffset)
		copy(out[lo:hi], s.streams[i%k][off:off+hi-lo])
	}
	return out
}

// floatsToBytes encodes values little-endian, the layout the engines use.
func floatsToBytes(v []float32) []byte {
	b := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(f))
	}
	return b
}

// floatAt decodes value i of a little-endian float32 buffer.
func floatAt(b []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
}

// relErr is the largest absolute difference between got and want,
// relative to want's largest magnitude. NaN in got reads as +Inf.
func relErr(got, want []byte) float64 {
	var maxDiff, maxRef float64
	for i := 0; i < len(want)/4; i++ {
		w := float64(floatAt(want, i))
		g := float64(floatAt(got, i))
		d := math.Abs(g - w)
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		if d > maxDiff {
			maxDiff = d
		}
		if a := math.Abs(w); a > maxRef {
			maxRef = a
		}
	}
	if maxRef == 0 {
		return maxDiff
	}
	return maxDiff / maxRef
}

// poison fills a receive buffer with NaN bit patterns, so an operation
// that fails to deliver cannot pass its output check on stale data.
func poison(b []byte) {
	for i := range b {
		b[i] = 0xff
	}
}
