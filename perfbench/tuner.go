package main

import (
	"sync"
	"sync/atomic"
	"time"

	"mpicomp/internal/mpi"
	"mpicomp/internal/simtime"
	"mpicomp/internal/tune"
)

// timedTuner implements mpi.CollTuner around tune.Tuner, timing every
// call the ranks make into it and remembering the last schedule picked.
type timedTuner struct {
	t *tune.Tuner

	picks, observes, probes atomic.Int64
	pickNs, observeNs       atomic.Int64
	last                    atomic.Int64

	// spans is filled only while traced is set; traced changes only
	// between World.Run calls.
	traced bool
	mu     sync.Mutex
	spans  []span
}

func (tt *timedTuner) record(name string, t0 time.Time, ns *atomic.Int64, n *atomic.Int64) {
	d := time.Since(t0)
	ns.Add(int64(d))
	n.Add(1)
	if tt.traced {
		tt.mu.Lock()
		tt.spans = append(tt.spans, span{Name: name, Start: sinceEpoch(t0), Dur: d.Nanoseconds()})
		tt.mu.Unlock()
	}
}

func (tt *timedTuner) PickAllreduce(p mpi.TunePoint) mpi.AllreduceAlgo {
	t0 := time.Now()
	a := tt.t.PickAllreduce(p)
	tt.record("tune.pick", t0, &tt.pickNs, &tt.picks)
	tt.last.Store(int64(a))
	return a
}

func (tt *timedTuner) ObserveAllreduce(p mpi.TunePoint, algo mpi.AllreduceAlgo, elapsed simtime.Duration) {
	t0 := time.Now()
	tt.t.ObserveAllreduce(p, algo, elapsed)
	tt.record("tune.observe", t0, &tt.observeNs, &tt.observes)
}

func (tt *timedTuner) NeedProbe(p mpi.TunePoint) bool { return tt.t.NeedProbe(p) }

func (tt *timedTuner) ObserveProbeSample(p mpi.TunePoint, sample []byte) {
	tt.probes.Add(1)
	tt.t.ObserveProbeSample(p, sample)
}

// advance folds one call's engine activity into the tuner at a
// world-synchronous point, as ombrun does after each measurement.
func (tt *timedTuner) advance(c counters) {
	tt.t.NoteCounters(tune.Counters{
		Compressions:    c.compressions,
		Bypasses:        c.bypasses,
		PoolFallbacks:   c.poolFallbacks,
		CacheHits:       c.cacheHits,
		CacheMisses:     c.cacheMisses,
		PipelinedChunks: c.pipelined,
	})
	tt.t.Advance()
}

// resetTimes clears the call timers at the start of a phase.
func (tt *timedTuner) resetTimes() {
	tt.picks.Store(0)
	tt.observes.Store(0)
	tt.pickNs.Store(0)
	tt.observeNs.Store(0)
}
