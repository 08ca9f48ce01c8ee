package main

import (
	"hash/crc32"
	"sort"
	"time"
)

// The benchmark's host is a shared virtual machine whose speed moves with
// what its other tenants do. On the 2-vCPU Xeon guest the baseline was
// recorded on, the same relay call with the same counters took ~37 ms or
// ~60 ms, switching every second or so, and the share of slow calls
// drifts over minutes; medians of wall-clock throughput moved by up to a
// quarter between two sets of runs of the same code.
//
// So the host times behind throughput_mb_s and setup_s are scaled to a
// reference speed. A calibration probe, a fixed job built only from the
// standard library that no change to this repository can make faster or
// slower, is timed right before and right after each measured interval,
// and the interval is multiplied by refProbe over the probe's mean time.
// The probe is branchy scalar code (a sort and a bit-level decode loop)
// plus a checksum and a copy, the kinds of work the codecs, checksums and
// staging copies do, because those are what the slow mode slows most. A
// run at reference speed reports its wall-clock unchanged; the raw
// wall-clock figures are printed alongside the metrics.

// refProbe is the probe's median time on the baseline's host.
const refProbe = 2300 * time.Microsecond

var (
	probeWords = func() []uint64 {
		v := make([]uint64, 1<<14)
		x := uint64(88172645463325252)
		for i := range v {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v[i] = x
		}
		return v
	}()
	probeInts  = make([]int, len(probeWords))
	probeBytes = make([]byte, 128<<10)
	probeDst   = make([]byte, len(probeBytes))
	// probeSink keeps the probe's results live.
	probeSink uint64
)

// probe runs the calibration job once and returns how long it took.
func probe() time.Duration {
	t0 := time.Now()
	for i, w := range probeWords {
		probeInts[i] = int(w >> 1)
	}
	sort.Ints(probeInts)
	probeSink += uint64(probeInts[0])

	// Decode unary-prefixed codes from the word stream, one data-
	// dependent branch per bit, as a bit-plane decoder does.
	var acc, bits uint64
	nb, w := 0, 0
	for n := 0; n < 60000; n++ {
		if nb < 16 {
			bits |= probeWords[w&(len(probeWords)-1)] >> 48 << uint(nb)
			nb += 16
			w++
		}
		z := 0
		for z < 8 && bits&(1<<uint(z)) == 0 {
			z++
		}
		bits >>= uint(z + 1)
		nb = max(nb-z-1, 0)
		acc += uint64(z) * uint64(n)
	}
	probeSink += acc

	copy(probeDst, probeBytes)
	probeSink += uint64(crc32.ChecksumIEEE(probeDst))
	return time.Since(t0)
}

// speedScale converts a host interval bracketed by probes taking before
// and after into reference-speed time.
func speedScale(before, after time.Duration) float64 {
	return float64(refProbe) / (float64(before+after) / 2)
}
