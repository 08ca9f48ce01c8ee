package core

import (
	"fmt"

	"mpicomp/internal/dtype"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/mpc"
	"mpicomp/internal/simtime"
)

// Typed (derived-datatype) engine entry points: pack+compress fusion.
//
// A typed compression feeds the layout's strided source runs directly
// into the codec pipelines — the gather happens inside the codec's
// existing byte-to-word read pass (hostpar.go typedView), so a strided
// message costs zero extra passes and zero staging allocations compared
// to compressing the same bytes pre-packed. Partitioning, kernel
// charges, and headers are all computed over the packed size, so the
// wire payload is bit-identical to Pack-then-Compress by construction
// (the codecs see the identical word sequence); the differential oracle
// in typed_test.go and the awpodc halo test pin that equivalence.
//
// Chunk variants take a packed byte offset so the pipelined rendezvous
// path can compress a typed message chunk by chunk without ever
// materializing the packed stream.
//
// Callers validate layouts at the API boundary (mpi.IsendTyped /
// IrecvTyped / Alltoallv); these entry points assume t.Validate(buf.Len())
// passed and 0 <= off <= off+n <= t.Size().

// ShouldCompressTyped is ShouldCompress for a typed message: the
// eligibility test runs over the packed wire size, not the source
// buffer's extent.
func (e *Engine) ShouldCompressTyped(buf *gpusim.Buffer, t dtype.Type) bool {
	return e.ShouldCompressPacked(buf, t.Size())
}

// ShouldCompressPacked reports whether an n-packed-byte message from buf
// is eligible for compression (the typed analogue of ShouldCompress,
// also used per chunk by the pipelined typed path).
func (e *Engine) ShouldCompressPacked(buf *gpusim.Buffer, n int) bool {
	if e == nil || e.cfg.Mode == ModeOff || e.cfg.Algorithm == AlgoNone {
		return false
	}
	if buf.Loc != gpusim.Device {
		return false
	}
	if n < e.cfg.Threshold || n%4 != 0 {
		return false
	}
	return true
}

// typedViewLocked flattens t into the arena's run table. The returned
// view aliases arena storage valid until the engine's next typed
// operation; workers only read it.
func (e *Engine) typedViewLocked(t dtype.Type) typedView {
	e.ar.truns = t.AppendRuns(e.ar.truns[:0])
	runs := e.ar.truns
	if cap(e.ar.troffs) < len(runs)+1 {
		e.ar.troffs = make([]int, 0, len(runs)+1)
	}
	offs := e.ar.troffs[:0]
	sum := 0
	for _, rg := range runs {
		offs = append(offs, sum)
		sum += rg[1]
	}
	offs = append(offs, sum)
	e.ar.troffs = offs
	return typedView{runs: runs, offs: offs}
}

// packChargeLocked charges the cost of explicitly packing (or unpacking)
// n strided bytes outside the codec: one read plus one write pass at
// memory bandwidth. Only the typed *bypass* path pays it — the fused
// compressed path reads the strided source during the codec kernel it
// already charges.
func (e *Engine) packChargeLocked(clk *simtime.Clock, n int) {
	t := startTimer(clk)
	clk.Advance(simtime.ThroughputTime(2*n, e.dev.Spec.MemBWGBps*8))
	e.charge(t, PhaseDataCopy)
}

// bypassTypedViewLocked gathers packed bytes [off, off+n) of t into the
// arena's pack scratch and returns it as an uncompressed wire payload
// view with a checksummed AlgoNone header. Unlike the contiguous bypass
// (which points at the user's bytes for free), a strided message must
// actually be packed to travel uncompressed, so one pack pass is charged.
func (e *Engine) bypassTypedViewLocked(clk *simtime.Clock, buf *gpusim.Buffer, t dtype.Type, off, n int) ([]byte, Header) {
	view := e.typedViewLocked(t)
	packed := e.ar.packedFor(n)
	gatherBytesAt(packed, buf.Data, view.runs, view.offs, off)
	e.packChargeLocked(clk, n)
	hdr := Header{Algo: AlgoNone, OrigBytes: n, CompBytes: n}
	hdr.Checksum = e.checksumLocked(clk, packed)
	return packed, hdr
}

// compressTypedLocked runs the send-side framework on packed bytes
// [off, off+n) of the layout, returning a payload view that aliases
// engine scratch.
func (e *Engine) compressTypedLocked(clk *simtime.Clock, buf *gpusim.Buffer, t dtype.Type, off, n int) ([]byte, Header) {
	if off%4 != 0 || !e.ShouldCompressPacked(buf, n) {
		e.Bypasses++
		return e.bypassTypedViewLocked(clk, buf, t, off, n)
	}
	if e.poolExhaustedLocked() {
		e.PoolFallbacks++
		return e.bypassTypedViewLocked(clk, buf, t, off, n)
	}
	e.Compressions++
	view := e.typedViewLocked(t)
	view.base = off
	var payload []byte
	var hdr Header
	switch e.cfg.Algorithm {
	case AlgoMPC:
		payload, hdr = e.compressMPC(clk, buf.Data, n, view)
	case AlgoZFP:
		payload, hdr = e.compressZFP(clk, buf.Data, n, view)
	default:
		panic("core: unreachable algorithm")
	}
	hdr.Checksum = e.checksumLocked(clk, payload)
	e.BytesIn += int64(hdr.OrigBytes)
	e.BytesOut += int64(hdr.CompBytes)
	e.observeRatio(hdr.Ratio())
	return payload, hdr
}

// CompressTyped compresses the words t selects from buf in one fused
// pass, returning the wire payload and header under the Compress
// ownership contract (both snapshots, safe to put in flight).
func (e *Engine) CompressTyped(clk *simtime.Clock, buf *gpusim.Buffer, t dtype.Type) ([]byte, Header) {
	return e.CompressTypedChunk(clk, buf, t, 0, t.Size())
}

// CompressTypedChunk compresses packed bytes [off, off+n) of the layout
// — one chunk of a pipelined typed send.
func (e *Engine) CompressTypedChunk(clk *simtime.Clock, buf *gpusim.Buffer, t dtype.Type, off, n int) ([]byte, Header) {
	e.mu.Lock()
	defer e.mu.Unlock()
	view, hdr := e.compressTypedLocked(clk, buf, t, off, n)
	payload := append([]byte(nil), view...)
	if hdr.PartBytes != nil {
		hdr.PartBytes = append([]int(nil), hdr.PartBytes...)
	}
	return payload, hdr
}

// CompressTypedAppend is the scratch-reuse variant of CompressTyped,
// mirroring CompressAppend: the payload is appended to dst (zero heap
// allocations once dst has capacity) and the header's PartBytes table
// aliases engine scratch valid only until the next compression.
func (e *Engine) CompressTypedAppend(clk *simtime.Clock, buf *gpusim.Buffer, t dtype.Type, dst []byte) ([]byte, Header) {
	e.mu.Lock()
	defer e.mu.Unlock()
	view, hdr := e.compressTypedLocked(clk, buf, t, 0, t.Size())
	return append(dst, view...), hdr
}

// BypassTyped produces the uncompressed wire form of the words t selects
// from buf — packed (one charged pack pass), checksummed, snapshotted —
// regardless of eligibility. The runtime uses it when the codec circuit
// breaker is open for the destination. Counted as a Bypass.
func (e *Engine) BypassTyped(clk *simtime.Clock, buf *gpusim.Buffer, t dtype.Type) ([]byte, Header) {
	return e.BypassTypedChunk(clk, buf, t, 0, t.Size())
}

// BypassTypedChunk is BypassTyped for packed bytes [off, off+n).
func (e *Engine) BypassTypedChunk(clk *simtime.Clock, buf *gpusim.Buffer, t dtype.Type, off, n int) ([]byte, Header) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.Bypasses++
	view, hdr := e.bypassTypedViewLocked(clk, buf, t, off, n)
	return append([]byte(nil), view...), hdr
}

// DecompressTyped restores a typed message: the decoded words scatter
// directly into the strided positions t selects in dst during the
// decoder's write-back pass (no staging copy, no unpack pass).
func (e *Engine) DecompressTyped(clk *simtime.Clock, hdr Header, payload []byte, dst *gpusim.Buffer, t dtype.Type) error {
	return e.DecompressTypedChunk(clk, hdr, payload, dst, t, 0)
}

// DecompressTypedChunk restores one chunk of a typed message into the
// layout's positions starting at packed byte offset off.
func (e *Engine) DecompressTypedChunk(clk *simtime.Clock, hdr Header, payload []byte, dst *gpusim.Buffer, t dtype.Type, off int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if hdr.OrigBytes < 0 || hdr.CompBytes < 0 {
		return fmt.Errorf("core: corrupt header (orig=%d comp=%d)", hdr.OrigBytes, hdr.CompBytes)
	}
	if len(payload) != hdr.CompBytes {
		return fmt.Errorf("core: payload is %d bytes, header says %d", len(payload), hdr.CompBytes)
	}
	if err := t.Validate(dst.Len()); err != nil {
		return fmt.Errorf("core: typed decompress: %w", err)
	}
	if off < 0 || hdr.OrigBytes > t.Size()-off {
		return fmt.Errorf("core: typed chunk [%d, %d) exceeds packed size %d", off, off+hdr.OrigBytes, t.Size())
	}
	view := e.typedViewLocked(t)
	view.base = off
	if !hdr.Compressed {
		if len(payload) != hdr.OrigBytes {
			return fmt.Errorf("core: uncompressed payload %d bytes, header says %d original", len(payload), hdr.OrigBytes)
		}
		// The uncompressed form arrives packed; scattering it back out is
		// a real unpack pass, charged like the sender's pack.
		scatterBytesAt(dst.Data, view.runs, view.offs, off, payload)
		e.packChargeLocked(clk, len(payload))
		dst.MarkDirty()
		return nil
	}
	if off%4 != 0 || hdr.OrigBytes%4 != 0 {
		return fmt.Errorf("core: compressed typed chunk [%d, %d) is not word-aligned", off, off+hdr.OrigBytes)
	}
	e.Decompressions++
	var err error
	switch hdr.Algo {
	case AlgoMPC:
		err = e.decompressMPC(clk, hdr, payload, dst.Data, view, nil)
	case AlgoZFP:
		err = e.decompressZFP(clk, hdr, payload, dst.Data, view, nil)
	default:
		return fmt.Errorf("core: unknown algorithm %v in header", hdr.Algo)
	}
	if err == nil {
		dst.MarkDirty()
	}
	return err
}

// probeRatioTyped is probeRatio over a typed message: the sampled prefix
// is gathered through the layout's runs.
func (e *Engine) probeRatioTyped(clk *simtime.Clock, buf *gpusim.Buffer, t dtype.Type, off, n int) {
	if e.cfg.Algorithm != AlgoMPC {
		return
	}
	pn := probeBytes
	if pn > n {
		pn = n
	}
	view := e.typedViewLocked(t)
	words := e.ar.wordsFor(pn / 4)
	gatherWordsAt(words, buf.Data, view.runs, view.offs, off/4)
	cs, err := mpc.CompressedSize(words, e.cfg.MPCDim)
	if err != nil || cs == 0 {
		return
	}
	blocks := e.dev.Spec.SMs / 2
	if blocks < 1 {
		blocks = 1
	}
	e.dev.LaunchKernel(clk, e.dev.Stream(0), gpusim.KernelSpec{
		Blocks: blocks, Bytes: pn, ThroughputGbps: e.dev.Spec.MPCCompressGbps, BusyWaitSync: true,
	})
	e.dev.StreamSync(clk, e.dev.Stream(0))
	e.observeRatio(float64(pn) / float64(cs))
}

// CompressTypedForLink is CompressTyped with the dynamic-selection gate,
// mirroring CompressForLink: gated messages are periodically probed
// (through the layout's runs) before the final bypass decision.
func (e *Engine) CompressTypedForLink(clk *simtime.Clock, buf *gpusim.Buffer, t dtype.Type, bwGBps float64) ([]byte, Header) {
	return e.compressTypedChunkForLink(clk, buf, t, 0, t.Size(), bwGBps)
}

func (e *Engine) compressTypedChunkForLink(clk *simtime.Clock, buf *gpusim.Buffer, t dtype.Type, off, n int, bwGBps float64) ([]byte, Header) {
	if e.cfg.Dynamic && off%4 == 0 && e.ShouldCompressPacked(buf, n) && !e.PredictBenefit(n, bwGBps) {
		e.mu.Lock()
		probe := e.probes%probeInterval == 0
		e.probes++
		if probe {
			e.probeRatioTyped(clk, buf, t, off, n)
		}
		e.mu.Unlock()
		if !probe || !e.PredictBenefit(n, bwGBps) {
			e.mu.Lock()
			e.Bypasses++
			view, hdr := e.bypassTypedViewLocked(clk, buf, t, off, n)
			payload := append([]byte(nil), view...)
			e.mu.Unlock()
			return payload, hdr
		}
	}
	return e.CompressTypedChunk(clk, buf, t, off, n)
}

// CompressTypedForLinkCached is CompressTypedForLink behind the
// compress-once cache, keyed by (allocation, layout signature, epoch,
// link class): repeated sends of an unchanged strided face reuse the
// first send's wire payload with no kernel charge.
func (e *Engine) CompressTypedForLinkCached(clk *simtime.Clock, buf *gpusim.Buffer, t dtype.Type, bwGBps float64) ([]byte, Header) {
	return e.CompressTypedChunkCached(clk, buf, t, 0, t.Size(), bwGBps)
}

// CompressTypedChunkCached is the chunk-granular cached typed
// compression the pipelined path uses; the packed offset joins the
// cache key so every chunk of a layout caches independently.
func (e *Engine) CompressTypedChunkCached(clk *simtime.Clock, buf *gpusim.Buffer, t dtype.Type, off, n int, bwGBps float64) ([]byte, Header) {
	id, allocOff, epoch, tracked := buf.Version()
	if e == nil || !tracked || !e.cacheEnabled() {
		return e.compressTypedChunkForLink(clk, buf, t, off, n, bwGBps)
	}
	key := cacheKey{id: id, off: allocOff, n: n, bw: e.cacheBWKey(bwGBps), sig: t.Signature(), poff: off, sched: e.ScheduleTag()}
	e.mu.Lock()
	if payload, hdr, ok := e.cacheLookupLocked(key, epoch); ok {
		e.mu.Unlock()
		return payload, hdr
	}
	e.CacheMisses++
	fallbacksBefore := e.PoolFallbacks
	e.mu.Unlock()

	payload, hdr := e.compressTypedChunkForLink(clk, buf, t, off, n, bwGBps)

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.PoolFallbacks != fallbacksBefore {
		// Pool exhaustion is a transient condition of this moment, not a
		// property of the bytes; caching the degraded form would freeze
		// it past the pool's recovery.
		return payload, hdr
	}
	if _, _, now, ok := buf.Version(); !ok || now != epoch {
		// Written during compression: the payload is still the correct
		// snapshot for this send, but no longer provably current.
		return payload, hdr
	}
	e.cacheInsertLocked(key, epoch, payload, hdr)
	return payload, hdr
}
