package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"mpicomp/internal/core"
	"mpicomp/internal/mpi"
	"mpicomp/internal/simtime"
)

// epoch anchors every span's start offset.
var epoch = time.Now()

func sinceEpoch(t time.Time) int64 { return t.Sub(epoch).Nanoseconds() }

// span is one traced interval: an operation, one rank's call into Rank.*,
// a tuner call, or an application call. Times are host nanoseconds.
type span struct {
	Name  string  `json:"name"`
	Op    int     `json:"op,omitempty"`
	Rank  int     `json:"rank,omitempty"`
	Start int64   `json:"start_ns"`
	Dur   int64   `json:"dur_ns"`
	SimUs float64 `json:"sim_us,omitempty"`
}

// callOut is what one call of a cell reports.
type callOut struct {
	// sim is the simulated latency of one operation of the call.
	sim simtime.Duration
	// rankSpans holds each rank's host interval inside its Rank.* call
	// (nil for application cells, whose rank calls happen inside the
	// application package).
	rankSpans [][2]int64
	// app carries application-level simulated splits.
	app appOut
}

type appOut struct {
	computeUs, commUs float64 // AWP-ODC per step
	execUs            float64 // Dask transpose-sum makespan
	stagingBytes      int64
}

// cell is one measured configuration of a workload: a world, the call
// that drives it, and the checks its outputs must pass.
type cell struct {
	name       string
	kind       string // operation kind, the key of mpi.op_host_ms
	world      *mpi.World
	opsPerCall int
	// delivered is the uncompressed payload bytes one call delivers into
	// receive buffers.
	delivered int64
	// prepare runs before the timed call (poisoning receive buffers).
	prepare func()
	run     func() (callOut, error)
	// check validates the outputs of the last call and records the error
	// of each lossy delivery against the host reference.
	check func() (errStat, bool)
	// after runs at the world-synchronous point after each call.
	after func(counters)
	// tuned marks cells whose schedule the autotuner picks; pick is the
	// schedule of the cell's last call.
	tuned bool
	pick  mpi.AllreduceAlgo
}

// suite is a built workload, ready to measure.
type suite struct {
	workload string
	cells    []*cell
	tuner    *timedTuner
	// codec accumulates engine activity from the first call on, warm-up
	// included: warm calls reuse cached payloads compressed then.
	codec          counters
	convergeRounds []int
	// codecSample is one of the workload's payloads, which the codec
	// layer is timed on at zfpRate.
	codecSample []float32
	zfpRate     int
}

// counters is the engine and fabric activity of one call, summed over
// ranks.
type counters struct {
	compressions, decompressions, bypasses, poolFallbacks int64
	cacheHits, cacheMisses                                int64
	bytesIn, bytesOut, relayed                            int64
	pipelined, pipeChunks, creditStalls, bypassSmall      int64
	phases                                                map[core.Phase]float64 // µs
	interBytes, intraBytes, messages, control             int64
}

func (c *counters) add(o counters) {
	c.compressions += o.compressions
	c.decompressions += o.decompressions
	c.bypasses += o.bypasses
	c.poolFallbacks += o.poolFallbacks
	c.cacheHits += o.cacheHits
	c.cacheMisses += o.cacheMisses
	c.bytesIn += o.bytesIn
	c.bytesOut += o.bytesOut
	c.relayed += o.relayed
	c.pipelined += o.pipelined
	c.pipeChunks += o.pipeChunks
	c.creditStalls += o.creditStalls
	c.bypassSmall += o.bypassSmall
	if c.phases == nil {
		c.phases = map[core.Phase]float64{}
	}
	for ph, v := range o.phases {
		c.phases[ph] += v
	}
	c.interBytes += o.interBytes
	c.intraBytes += o.intraBytes
	c.messages += o.messages
	c.control += o.control
}

// resetWorld rewinds clocks and fabric and clears engine counters, so a
// reused world starts each call as a fresh one would: AWP-ODC reports
// absolute makespans and engines accumulate byte counters.
func resetWorld(w *mpi.World) {
	w.ResetClocks()
	for i := 0; i < w.Size(); i++ {
		w.Rank(i).Engine.ResetCounters()
	}
}

// readCounters sums the public engine and fabric counters of a world.
func readCounters(w *mpi.World) counters {
	c := counters{phases: map[core.Phase]float64{}}
	for i := 0; i < w.Size(); i++ {
		e := w.Rank(i).Engine
		c.compressions += int64(e.Compressions)
		c.decompressions += int64(e.Decompressions)
		c.bypasses += int64(e.Bypasses)
		c.poolFallbacks += int64(e.PoolFallbacks)
		c.cacheHits += int64(e.CacheHits)
		c.cacheMisses += int64(e.CacheMisses)
		c.bytesIn += e.BytesIn
		c.bytesOut += e.BytesOut
		c.relayed += e.RelayedBytes
		c.pipelined += int64(e.PipelinedChunks)
		p := e.PipeSnapshot()
		c.pipeChunks += int64(p.Chunks)
		c.creditStalls += int64(p.CreditStalls)
		c.bypassSmall += int64(p.BypassSmall)
		for _, ph := range core.Phases() {
			c.phases[ph] += e.Stats.Get(ph).Microseconds()
		}
	}
	for _, n := range w.Fabric().Stats() {
		c.interBytes += n.Egress.Bytes
		c.intraBytes += n.Intra.Bytes
		c.messages += n.Egress.Messages + n.Intra.Messages
		c.control += n.ControlSent
	}
	return c
}

// callResult is one completed call as the phase loop saw it.
type callResult struct {
	out   callOut
	wall  time.Duration
	alloc uint64 // heap bytes allocated during the call
	ctr   counters
	err   errStat
	ok    bool
	start time.Time
}

// errStat accumulates the relative error of lossy deliveries: for each
// delivered unit (a relay payload segment, an allreduce vector, a Dask
// result), its largest element error relative to its scale.
type errStat struct {
	sum float64
	n   int
}

func (e *errStat) add(v float64) { e.sum += v; e.n++ }

func (e *errStat) merge(o errStat) { e.sum += o.sum; e.n += o.n }

// mean is the average over deliveries, 0 when nothing was lossy.
func (e errStat) mean() float64 {
	if e.n == 0 {
		return 0
	}
	return e.sum / float64(e.n)
}

// doCall runs one call of a cell on a reset world and checks it.
func (s *suite) doCall(c *cell) callResult {
	resetWorld(c.world)
	if c.prepare != nil {
		c.prepare()
	}
	a0 := heapAllocs()
	t0 := time.Now()
	out, err := c.run()
	res := callResult{out: out, wall: time.Since(t0), start: t0, alloc: heapAllocs() - a0}
	res.ctr = readCounters(c.world)
	if c.tuned {
		c.pick = mpi.AllreduceAlgo(s.tuner.last.Load())
	}
	s.codec.add(res.ctr)
	if c.after != nil {
		c.after(res.ctr)
	}
	if err == nil {
		res.err, res.ok = c.check()
	}
	return res
}

// warmUp runs each cell until its caches are filled and, for tuned
// cells, until the tuner's picks stop changing.
func (s *suite) warmUp() error {
	for _, c := range s.cells {
		rounds, err := s.warmCell(c)
		if err != nil {
			return err
		}
		if c.tuned {
			s.convergeRounds = append(s.convergeRounds, rounds)
		}
	}
	return nil
}

// settleCalls is how many consecutive identical picks count as settled;
// maxWarmCalls caps a tuned cell's warm-up.
const (
	settleCalls  = 3
	maxWarmCalls = 24
)

func (s *suite) warmCell(c *cell) (int, error) {
	if !c.tuned {
		for i := 0; i < 2; i++ {
			if r := s.doCall(c); !r.ok {
				return 0, fmt.Errorf("warm-up of %s failed its check", c.name)
			}
		}
		return 2, nil
	}
	var picks []mpi.AllreduceAlgo
	for n := 1; n <= maxWarmCalls; n++ {
		if r := s.doCall(c); !r.ok {
			return n, fmt.Errorf("warm-up of %s failed its check", c.name)
		}
		picks = append(picks, c.pick)
		if len(picks) >= settleCalls+3 && allEqual(picks[len(picks)-settleCalls:]) {
			return n, nil
		}
	}
	return maxWarmCalls, nil
}

func allEqual(v []mpi.AllreduceAlgo) bool {
	for _, x := range v[1:] {
		if x != v[0] {
			return false
		}
	}
	return true
}

// phase is what one measured phase observed.
type phase struct {
	calls, ops, failed int
	cellDelivered      []int64 // per cell, bytes one call delivers
	wall               time.Duration
	cellWall           [][]float64 // per cell, per call host seconds
	cellRef            [][]float64 // cellWall scaled to reference speed
	probes             []float64   // calibration probe seconds
	roundAllocPerGB    []float64   // heap MB the calls allocated per GB delivered, per round
	ctr                counters
	relErr             errStat
	cellSim            [][]float64          // per cell, per call simulated µs per op
	opHostMs           map[string][]float64 // per kind, slowest rank's Rank.* span per op
	app                appOut               // summed over app calls
	awpCalls, awpOps   int
	daskCall           int
	// rankPhaseUs sums each call's engine phases divided by its world
	// size (the mean rank); simSumUs sums simulated latency over ops.
	rankPhaseUs        map[core.Phase]float64
	simSumUs           float64
	replays, divergent int
	spans              []span
	counterLog         []opCounters
}

// opCounters is one traced call's counters.
type opCounters struct {
	Op       int                `json:"op"`
	Cell     string             `json:"cell"`
	Counters map[string]float64 `json:"counters"`
}

// runPhase measures the suite in a closed loop, one call in flight,
// round-robin over its cells, for at least budget (or exactly rounds
// rounds when rounds > 0). A traced phase also keeps spans and counters
// per call and replays every call to check its simulated latency.
func (s *suite) runPhase(budget time.Duration, rounds int, traced bool) phase {
	p := phase{
		cellSim:     make([][]float64, len(s.cells)),
		cellWall:    make([][]float64, len(s.cells)),
		cellRef:     make([][]float64, len(s.cells)),
		opHostMs:    map[string][]float64{},
		rankPhaseUs: map[core.Phase]float64{},
	}
	for _, c := range s.cells {
		p.cellDelivered = append(p.cellDelivered, c.delivered)
	}
	if s.tuner != nil {
		s.tuner.resetTimes()
		s.tuner.traced = traced
		defer func() { s.tuner.traced = false }()
	}
	runtime.GC()
	start := time.Now()
	before := probe()
	for round := 0; ; round++ {
		if rounds > 0 && round >= rounds {
			break
		}
		if rounds == 0 && round > 0 && time.Since(start) >= budget {
			break
		}
		var rDelivered int64
		var rAlloc uint64
		for ci, c := range s.cells {
			r := s.doCall(c)
			after := probe()
			scale := speedScale(before, after)
			p.probes = append(p.probes, after.Seconds())
			before = after
			p.calls++
			p.ctr.add(r.ctr)
			if !r.ok {
				p.failed += c.opsPerCall
				continue
			}
			p.ops += c.opsPerCall
			rDelivered += c.delivered
			rAlloc += r.alloc
			p.relErr.merge(r.err)
			p.cellWall[ci] = append(p.cellWall[ci], r.wall.Seconds())
			p.cellRef[ci] = append(p.cellRef[ci], r.wall.Seconds()*scale)
			sim := r.out.sim.Microseconds()
			p.simSumUs += sim * float64(c.opsPerCall)
			for ph, v := range r.ctr.phases {
				p.rankPhaseUs[ph] += v / float64(c.world.Size())
			}
			p.cellSim[ci] = append(p.cellSim[ci], sim)
			if r.out.rankSpans != nil {
				var slowest int64
				for _, rs := range r.out.rankSpans {
					if d := rs[1] - rs[0]; d > slowest {
						slowest = d
					}
				}
				p.opHostMs[c.kind] = append(p.opHostMs[c.kind], float64(slowest)/1e6)
			}
			switch c.kind {
			case "awpodc":
				p.awpCalls++
				p.awpOps += c.opsPerCall
				p.app.computeUs += r.out.app.computeUs
				p.app.commUs += r.out.app.commUs
				p.app.stagingBytes += r.out.app.stagingBytes
			case "dask":
				p.daskCall++
				p.app.execUs += r.out.app.execUs
			}
			if traced {
				op := p.calls
				p.spans = append(p.spans, span{Name: c.kind + ":" + c.name, Op: op, Start: sinceEpoch(r.start), Dur: r.wall.Nanoseconds(), SimUs: sim})
				for rank, rs := range r.out.rankSpans {
					p.spans = append(p.spans, span{Name: "rank." + c.kind, Op: op, Rank: rank, Start: rs[0], Dur: rs[1] - rs[0]})
				}
				p.counterLog = append(p.counterLog, opCounters{Op: op, Cell: c.name, Counters: r.ctr.named()})
				replay := s.doCall(c)
				p.replays++
				if !replay.ok || replay.out.sim != r.out.sim {
					p.divergent++
				}
				before = probe()
			}
		}
		if rDelivered > 0 {
			p.roundAllocPerGB = append(p.roundAllocPerGB, float64(rAlloc)/1e6/(float64(rDelivered)/1e9))
		}
	}
	p.wall = time.Since(start)
	if s.tuner != nil && traced {
		s.tuner.mu.Lock()
		p.spans = append(p.spans, s.tuner.spans...)
		s.tuner.spans = nil
		s.tuner.mu.Unlock()
	}
	return p
}

// mbps is the uncompressed MB one round of calls delivers per second of
// host time at reference speed (calib.go), each call taking its cell's
// median scaled time.
func (p *phase) mbps() float64 { return roundMBps(p.cellDelivered, p.cellRef) }

// rawMBps is mbps on unscaled wall-clock.
func (p *phase) rawMBps() float64 { return roundMBps(p.cellDelivered, p.cellWall) }

func roundMBps(delivered []int64, secs [][]float64) float64 {
	var mb, sec float64
	for ci, w := range secs {
		if len(w) == 0 {
			continue
		}
		mb += float64(delivered[ci]) / 1e6
		sec += median(w)
	}
	if sec == 0 {
		return 0
	}
	return mb / sec
}

// heapAllocs reads the cumulative bytes allocated on the heap without
// stopping the world.
func heapAllocs() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// named renders a counter snapshot for the trace file.
func (c counters) named() map[string]float64 {
	m := map[string]float64{
		"compressions": float64(c.compressions), "decompressions": float64(c.decompressions),
		"bypasses": float64(c.bypasses), "pool_fallbacks": float64(c.poolFallbacks),
		"cache_hits": float64(c.cacheHits), "cache_misses": float64(c.cacheMisses),
		"bytes_in": float64(c.bytesIn), "bytes_out": float64(c.bytesOut), "relayed_bytes": float64(c.relayed),
		"pipe_chunks": float64(c.pipeChunks), "credit_stalls": float64(c.creditStalls), "bypass_small": float64(c.bypassSmall),
		"inter_bytes": float64(c.interBytes), "intra_bytes": float64(c.intraBytes),
		"messages": float64(c.messages), "control_pkts": float64(c.control),
	}
	for ph, v := range c.phases {
		m["sim_us."+ph.String()] = v
	}
	return m
}

// simUs is the geometric mean over cells of each cell's mean simulated
// per-operation latency. Per cell the mean, not the median: concurrent
// fabric reservations can settle one of two ways from op to op, and a
// median would jump between the two modes.
func (p *phase) simUs() float64 {
	var logSum float64
	var n int
	for _, v := range p.cellSim {
		if len(v) == 0 {
			continue
		}
		logSum += math.Log(mean(v))
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quantile returns the q-quantile of v by linear interpolation.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
