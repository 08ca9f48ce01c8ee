package main

import (
	"fmt"
	"math"
	"time"

	"mpicomp/internal/mpc"
	"mpicomp/internal/zfp"
)

// codecRates times single-thread encode and decode of sample through the
// codecs' scratch-reuse entry points, MPC at dimensionality 1 (the
// engines' default) and ZFP at rate. Each of the four is run for budget
// and reported as the median over calls of uncompressed MB/s.
func codecRates(sample []float32, rate int, budget time.Duration) (map[string]float64, error) {
	n := len(sample)
	mb := float64(4*n) / 1e6
	words := make([]uint32, n)
	for i, v := range sample {
		words[i] = math.Float32bits(v)
	}
	mpcBuf := make([]byte, 0, mpc.Bound(n))
	zsize, err := zfp.CompressedSize(n, rate)
	if err != nil {
		return nil, err
	}
	zfpBuf := make([]byte, 0, zsize)
	wordsOut := make([]uint32, n)
	floatsOut := make([]float32, n)

	mpcComp, err := mpc.AppendCompressWords(mpcBuf, words, 1)
	if err != nil {
		return nil, err
	}
	if err := mpc.DecompressWordsInto(wordsOut, mpcComp, 1); err != nil {
		return nil, err
	}
	for i := range words {
		if wordsOut[i] != words[i] {
			return nil, fmt.Errorf("mpc round trip differs at word %d", i)
		}
	}
	zfpComp, err := zfp.AppendCompress(zfpBuf, sample, rate)
	if err != nil {
		return nil, err
	}

	var callErr error
	rate1 := func(fn func() error) float64 {
		var rates []float64
		start := time.Now()
		for len(rates) < 3 || time.Since(start) < budget {
			t0 := time.Now()
			if err := fn(); err != nil && callErr == nil {
				callErr = err
			}
			rates = append(rates, mb/time.Since(t0).Seconds())
		}
		return median(rates)
	}
	out := map[string]float64{
		"codec.mpc.encode_mb_s": rate1(func() error { _, err := mpc.AppendCompressWords(mpcBuf, words, 1); return err }),
		"codec.mpc.decode_mb_s": rate1(func() error { return mpc.DecompressWordsInto(wordsOut, mpcComp, 1) }),
		"codec.zfp.encode_mb_s": rate1(func() error { _, err := zfp.AppendCompress(zfpBuf, sample, rate); return err }),
		"codec.zfp.decode_mb_s": rate1(func() error { return zfp.DecompressInto(floatsOut, zfpComp, rate) }),
	}
	return out, callErr
}
