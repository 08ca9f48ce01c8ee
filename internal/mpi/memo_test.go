package mpi

import (
	"fmt"
	"hash/crc32"
	"testing"
	"time"

	"mpicomp/internal/core"
	"mpicomp/internal/faults"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
)

// relayRun is what one relayMix run observed: per-rank virtual clocks,
// a CRC of each rank's receive buffers, the deterministic stats behind
// ombrun's "# cache:" and "# pipeline:" lines, and the host stats.
type relayRun struct {
	clocks []simtime.Time
	crcs   []uint32
	cache  core.CacheStats
	pipe   core.PipelineStats
	host   core.HostStats
}

// relayLayout is a Longhorn layout for relayMix. Flat Bcast is left out
// of layouts where its binomial tree's concurrent sends make the fabric
// arbitration, and so the clocks, depend on host goroutine order even
// without the memo (only the 2x2 layout is free of that).
type relayLayout struct {
	nodes, ppn int
	bcast      bool
}

// relayMix runs every collective that consumes relayed payloads — Bcast,
// Allgather, BcastHierarchical, AllgatherHierarchical and the ring
// allreduce (whose allgather phase relays) — for three warm iterations,
// with the world's decode-once memo on or off.
func relayMix(t *testing.T, cfg core.Config, lay relayLayout, workers int, memo bool) relayRun {
	t.Helper()
	const (
		words = 1 << 14 // 64 KB per block: relays ride the 8 KB chunk path
		iters = 3
	)
	cfg.Mode = core.ModeOpt
	cfg.Threshold = 4 << 10
	cfg.PoolBufBytes = 4 << 20
	cfg.PipelineChunkBytes = 8 << 10
	cfg.Workers = workers
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: lay.nodes, PPN: lay.ppn, Engine: cfg})
	if !memo {
		for _, r := range w.ranks {
			r.Engine.SetDecodeMemo(nil)
		}
	}
	size := w.Size()
	crcs := make([]uint32, size)
	times, err := w.Run(func(r *Rank) error {
		vals := make([]float32, words)
		for i := range vals {
			vals[i] = float32(r.ID()+1) + float32(i%1021)*0.25
		}
		send := devBuf(r, vals).Track()
		fan := emptyDevBuf(r, words).Track()
		if r.ID() == 0 {
			core.FloatsToBytes(fan.Data[:0], vals)
			fan.MarkDirty()
		}
		bc := emptyDevBuf(r, words)
		ag := emptyDevBuf(r, size*words)
		agh := emptyDevBuf(r, size*words)
		sum := emptyDevBuf(r, words)
		h := crc32.NewIEEE()
		for it := 0; it < iters; it++ {
			if lay.bcast {
				if r.ID() == 0 {
					copy(bc.Data, fan.Data)
					bc.MarkDirty()
				}
				if err := r.Bcast(0, bc); err != nil {
					return err
				}
			}
			if err := r.BcastHierarchical(0, fan); err != nil {
				return err
			}
			if err := r.Allgather(send, ag); err != nil {
				return err
			}
			if err := r.AllgatherHierarchical(send, agh); err != nil {
				return err
			}
			if err := r.RingAllreduceSum(send, sum); err != nil {
				return err
			}
			for _, b := range [][]byte{bc.Data, fan.Data, ag.Data, agh.Data, sum.Data} {
				h.Write(b)
			}
		}
		crcs[r.ID()] = h.Sum32()
		return nil
	})
	if err != nil {
		t.Fatalf("relay mix (%v %+v workers=%d memo=%v): %v", cfg.Algorithm, lay, workers, memo, err)
	}
	out := relayRun{clocks: times, crcs: crcs, pipe: pipeTotals(w)}
	for i := 0; i < size; i++ {
		out.cache.Add(w.Rank(i).Engine.CacheSnapshot())
		out.host.Add(w.Rank(i).Engine.HostSnapshot())
	}
	if err := w.ranks[0].Engine.DecodeMemo().Verify(); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameRelayRun(t *testing.T, what string, got, want relayRun) {
	t.Helper()
	for i := range want.clocks {
		if got.clocks[i] != want.clocks[i] {
			t.Errorf("%s: rank %d clock %v, want %v", what, i, got.clocks[i], want.clocks[i])
		}
		if got.crcs[i] != want.crcs[i] {
			t.Errorf("%s: rank %d receive CRC %08x, want %08x", what, i, got.crcs[i], want.crcs[i])
		}
	}
	if got.cache != want.cache {
		t.Errorf("%s: cache stats %+v, want %+v", what, got.cache, want.cache)
	}
	if got.pipe != want.pipe {
		t.Errorf("%s: pipeline stats %+v, want %+v", what, got.pipe, want.pipe)
	}
}

// TestDecodeMemoOnOffIdentical: the decode-once memo changes host work
// only. Under MPC and ZFP rate 16, at codec pool sizes 1, 2 and 8, the
// relay collectives deliver identical bytes, advance every rank's
// virtual clock identically and report identical cache and pipeline
// stats with the memo on and off — and the memo-on runs do hit.
func TestDecodeMemoOnOffIdentical(t *testing.T) {
	for _, lay := range []relayLayout{{2, 2, true}, {4, 2, false}} {
		for _, cfg := range []core.Config{
			{Algorithm: core.AlgoMPC},
			{Algorithm: core.AlgoZFP, ZFPRate: 16},
		} {
			what := fmt.Sprintf("%v %dx%d", cfg.Algorithm, lay.nodes, lay.ppn)
			ref := relayMix(t, cfg, lay, 1, false)
			if ref.host.DecodeMemoHits != 0 {
				t.Fatalf("%s: memo-off run counted %d hits", what, ref.host.DecodeMemoHits)
			}
			for _, workers := range []int{1, 2, 8} {
				on := relayMix(t, cfg, lay, workers, true)
				sameRelayRun(t, fmt.Sprintf("%s workers=%d memo on", what, workers), on, ref)
				if on.host.DecodeMemoHits == 0 {
					t.Errorf("%s workers=%d: memo on but no hits", what, workers)
				}
				if workers != 1 {
					off := relayMix(t, cfg, lay, workers, false)
					sameRelayRun(t, fmt.Sprintf("%s workers=%d memo off", what, workers), off, ref)
				}
			}
		}
	}
}

// TestDecodeMemoRelayHitsPerCall: in relay steady state (one Bcast and
// one Allgather per call on 4x2, as the relay benchmark runs), each call
// makes 63 relay decodes of which at most 9 are distinct payloads, so at
// least 54 are memo hits. The same warm call must also stay nearly
// allocation-free.
func TestDecodeMemoRelayHitsPerCall(t *testing.T) {
	const words = 1 << 16
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 4, PPN: 2,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 16}})
	size := w.Size()
	sends, bcs, ags := make([]*gpusim.Buffer, size), make([]*gpusim.Buffer, size), make([]*gpusim.Buffer, size)
	_, err := w.Run(func(r *Rank) error {
		vals := make([]float32, words)
		for i := range vals {
			vals[i] = float32(r.ID()+1) * float32(i%509)
		}
		sends[r.ID()] = devBuf(r, vals).Track()
		bcs[r.ID()] = devBuf(r, vals).Track()
		ags[r.ID()] = emptyDevBuf(r, size*words)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	call := func() int {
		for i := 0; i < size; i++ {
			w.Rank(i).Engine.ResetCounters()
		}
		if _, err := w.Run(func(r *Rank) error {
			if err := r.Bcast(0, bcs[r.ID()]); err != nil {
				return err
			}
			return r.Allgather(sends[r.ID()], ags[r.ID()])
		}); err != nil {
			t.Fatal(err)
		}
		var h core.HostStats
		for i := 0; i < size; i++ {
			h.Add(w.Rank(i).Engine.HostSnapshot())
		}
		return h.DecodeMemoHits
	}
	call() // cold: fills the memo
	for i := 0; i < 3; i++ {
		if hits := call(); hits < 54 {
			t.Fatalf("warm call %d: %d memo hits, want >= 54 of 63", i, hits)
		}
	}

	// The transport recycles its message objects on this clean path, so a
	// warm call allocates under two objects per message; it used to be
	// about six (envelope, two requests, a receive post, two channels).
	// The bound leaves room for the race detector, under which sync.Pool
	// drops a share of what it is given.
	const messages = 63
	if allocs := testing.AllocsPerRun(5, func() { call() }); allocs >= 3*messages {
		t.Errorf("warm relay call allocated %.0f objects for %d messages", allocs, messages)
	}
}

// TestDecodeMemoNeverHoldsCorruptPayload: under a fabric that drops and
// corrupts messages and chunks, relay collectives still complete and no
// payload that failed CRC verification ever enters the memo.
func TestDecodeMemoNeverHoldsCorruptPayload(t *testing.T) {
	for _, chunk := range []int{0, 16 << 10} {
		w := mustWorld(t, Options{
			Cluster: hw.Longhorn(), Nodes: 4, PPN: 2,
			Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
				Threshold: 16 << 10, PoolBufBytes: 4 << 20, PipelineChunkBytes: chunk},
			Faults: &faults.Config{Seed: 21, DropRate: 0.05, CorruptRate: 0.15},
		})
		const words = 1 << 15
		_, err := w.Run(func(r *Rank) error {
			vals := make([]float32, words)
			for i := range vals {
				vals[i] = float32(r.ID()) + float32(i%331)*0.5
			}
			send := devBuf(r, vals)
			ag := emptyDevBuf(r, r.Size()*words)
			for it := 0; it < 2; it++ {
				if err := r.Bcast(0, send); err != nil {
					return err
				}
				if err := r.Allgather(send, ag); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if st := w.FaultStats(); st.Corruptions == 0 {
			t.Fatalf("chunk=%d: the adversary never corrupted anything: %+v", chunk, st)
		}
		var failures int
		var h core.HostStats
		for _, r := range w.ranks {
			failures += r.Engine.ChecksumFailures
			h.Add(r.Engine.HostSnapshot())
		}
		if h.DecodeMemoHits == 0 {
			t.Fatalf("chunk=%d: the memo served nothing", chunk)
		}
		if err := w.ranks[0].Engine.DecodeMemo().Verify(); err != nil {
			t.Fatalf("chunk=%d (%d checksum failures seen): %v", chunk, failures, err)
		}
	}
}

// TestCodecBusyWithinWallClock: host codec timing is truthful. Summed
// over the ranks of an 8-rank Allgather, worker busy time never exceeds
// the run's wall-clock times the codec pool size.
func TestCodecBusyWithinWallClock(t *testing.T) {
	const words = 1 << 17
	for _, workers := range []int{1, 2} {
		w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 4, PPN: 2,
			Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, Workers: workers}})
		for _, r := range w.ranks {
			r.Engine.SetDecodeMemo(nil) // every decode runs on the pool
		}
		start := time.Now()
		_, err := w.Run(func(r *Rank) error {
			vals := make([]float32, words)
			for i := range vals {
				vals[i] = float32(r.ID()) + float32(i%97)
			}
			return r.Allgather(devBuf(r, vals), emptyDevBuf(r, r.Size()*words))
		})
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		var h core.HostStats
		for _, r := range w.ranks {
			h.Add(r.Engine.HostSnapshot())
		}
		if h.CodecRuns == 0 || h.CodecBusy <= 0 {
			t.Fatalf("workers=%d: no codec work recorded: %+v", workers, h)
		}
		if limit := wall * time.Duration(workers); h.CodecBusy > limit {
			t.Errorf("workers=%d: codec busy %v exceeds wall %v x %d workers", workers, h.CodecBusy, wall, workers)
		}
	}
}
