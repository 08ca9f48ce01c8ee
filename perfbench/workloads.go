package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"mpicomp/internal/awpodc"
	"mpicomp/internal/core"
	"mpicomp/internal/dask"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpi"
	"mpicomp/internal/simtime"
	"mpicomp/internal/tune"
)

// workloadNames lists the workloads in the order BENCHMARK.json names
// them.
var workloadNames = []string{"relay", "reduce", "app"}

// build constructs a workload's worlds and payloads from the seed and
// warms it up. workers sets the codec worker pool size (0: the shared
// pool sized to GOMAXPROCS).
func build(workload string, seed uint64, workers int) (*suite, error) {
	var s *suite
	var err error
	switch workload {
	case "relay":
		s, err = buildRelay(seed, workers)
	case "reduce":
		s, err = buildReduce(seed, workers, mpi.AllreduceAuto)
	case "app":
		s, err = buildApp(seed, workers)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	if err := s.warmUp(); err != nil {
		return nil, err
	}
	return s, nil
}

// zfpTol is the sanity bound on a ZFP cell's relative error: half the
// rate's bits of precision. Fixed-rate ZFP keeps far more than that on
// smooth data, so exceeding it means corrupted output, not codec loss.
func zfpTol(rate int) float64 { return math.Ldexp(1, -rate/2) }

func deviceBuffer(r *mpi.Rank, data []byte) *gpusim.Buffer {
	return (&gpusim.Buffer{Data: data, Loc: gpusim.Device, Dev: r.Dev}).Track()
}

// collRun returns a cell's run function for a collective: every rank
// synchronizes, then times its call into Rank.* on both clocks. The
// operation's simulated latency is the slowest rank's.
func collRun(w *mpi.World, op func(r *mpi.Rank) error) func() (callOut, error) {
	sims := make([]simtime.Duration, w.Size())
	return func() (callOut, error) {
		spans := make([][2]int64, w.Size())
		_, err := w.Run(func(r *mpi.Rank) error {
			if err := r.Barrier(); err != nil {
				return err
			}
			id := r.ID()
			t0 := r.Clock.Now()
			spans[id][0] = sinceEpoch(time.Now())
			err := op(r)
			spans[id][1] = sinceEpoch(time.Now())
			sims[id] = r.Clock.Now().Sub(t0)
			return err
		})
		var worst simtime.Duration
		for _, d := range sims {
			if d > worst {
				worst = d
			}
		}
		return callOut{sim: worst, rankSpans: spans}, err
	}
}

// ---- relay ----

const relayBytes = 256 << 10

func buildRelay(seed uint64, workers int) (*suite, error) {
	src := newSources()
	s := &suite{workload: "relay", zfpRate: 16}
	codecs := []struct {
		name string
		cfg  core.Config
	}{
		{"mpc", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, Workers: workers}},
		{"zfp16", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 16, Workers: workers}},
	}
	for ci, cd := range codecs {
		w, err := mpi.NewWorld(mpi.Options{Cluster: hw.Longhorn(), Nodes: 4, PPN: 2, Engine: cd.cfg})
		if err != nil {
			return nil, err
		}
		lossy := cd.cfg.Algorithm == core.AlgoZFP
		s.cells = append(s.cells,
			bcastCell(w, src, seed, 2*ci, cd.name, lossy),
			allgatherCell(w, src, seed, 2*ci+1, cd.name, lossy))
	}
	s.codecSample = src.payload(seed, 0, 0, relayBytes/4) // the MPC Bcast root's
	return s, nil
}

// blockCheck compares a delivered block with what was sent: bit-identical
// for lossless codecs, within zfpTol for ZFP. A lossy block's error is
// recorded per payload segment, each relative to its own generator's
// scale, so one large-valued dataset does not set the error of the rest.
func blockCheck(es *errStat, got, want []byte, lossy bool, rate int) bool {
	if !lossy {
		return bytes.Equal(got, want)
	}
	ok := true
	for lo := 0; lo < len(want); lo += 4 * segmentValues {
		hi := min(lo+4*segmentValues, len(want))
		e := relErr(got[lo:hi], want[lo:hi])
		es.add(e)
		if !(e <= zfpTol(rate)) {
			ok = false
		}
	}
	return ok
}

func bcastCell(w *mpi.World, src *sources, seed uint64, id int, codec string, lossy bool) *cell {
	const root = 0
	size := w.Size()
	n := relayBytes / 4
	vals := src.payload(seed, id, root, n)
	want := floatsToBytes(vals)
	bufs := make([]*gpusim.Buffer, size)
	for i := range bufs {
		data := make([]byte, relayBytes)
		if i == root {
			copy(data, want)
		}
		bufs[i] = deviceBuffer(w.Rank(i), data)
	}
	return &cell{
		name: "bcast." + codec, kind: "bcast", world: w, opsPerCall: 1,
		delivered: int64(size-1) * relayBytes,
		prepare: func() {
			for i, b := range bufs {
				if i != root {
					poison(b.Data)
					b.MarkDirty()
				}
			}
		},
		run: collRun(w, func(r *mpi.Rank) error { return r.Bcast(root, bufs[r.ID()]) }),
		check: func() (errStat, bool) {
			var es errStat
			ok := bytes.Equal(bufs[root].Data, want)
			for i, b := range bufs {
				if i != root && !blockCheck(&es, b.Data, want, lossy, 16) {
					ok = false
				}
			}
			return es, ok
		},
	}
}

func allgatherCell(w *mpi.World, src *sources, seed uint64, id int, codec string, lossy bool) *cell {
	size := w.Size()
	n := relayBytes / 4
	sends := make([]*gpusim.Buffer, size)
	recvs := make([]*gpusim.Buffer, size)
	for i := 0; i < size; i++ {
		sends[i] = deviceBuffer(w.Rank(i), floatsToBytes(src.payload(seed, id, i, n)))
		recvs[i] = deviceBuffer(w.Rank(i), make([]byte, size*relayBytes))
	}
	return &cell{
		name: "allgather." + codec, kind: "allgather", world: w, opsPerCall: 1,
		delivered: int64(size*(size-1)) * relayBytes,
		prepare: func() {
			for _, b := range recvs {
				poison(b.Data)
				b.MarkDirty()
			}
		},
		run: collRun(w, func(r *mpi.Rank) error { return r.Allgather(sends[r.ID()], recvs[r.ID()]) }),
		check: func() (errStat, bool) {
			var es errStat
			ok := true
			for i, rb := range recvs {
				for j, sb := range sends {
					got := rb.Data[j*relayBytes : (j+1)*relayBytes]
					if !blockCheck(&es, got, sb.Data, lossy && i != j, 16) {
						ok = false
					}
				}
			}
			return es, ok
		},
	}
}

// ---- reduce ----

var reduceSizes = []int{32 << 10, 256 << 10, 1 << 20, 4 << 20}

const alltoallPeerBytes = 64 << 10

// tunerSeed fixes the autotuner's exploration order. The tuner is part of
// the system under test, not an input: the workload seed varies only the
// payloads, so a seed never buys a different exploration walk.
const tunerSeed = 1

// buildReduce builds the reduce workload with AllreduceSum under the
// autotuner, or with schedule pin when pin is not AllreduceAuto.
func buildReduce(seed uint64, workers int, pin mpi.AllreduceAlgo) (*suite, error) {
	src := newSources()
	s := &suite{workload: "reduce", zfpRate: 16}
	var tt *timedTuner
	var ct mpi.CollTuner
	if pin == mpi.AllreduceAuto {
		tt = &timedTuner{t: tune.NewTuner(tune.Options{Seed: tunerSeed, Cluster: hw.Longhorn()})}
		s.tuner, ct = tt, tt
	}
	cfg := core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, PipelineChunkBytes: 128 << 10, Workers: workers}
	var hier *mpi.World
	id := 0
	for _, shape := range [][2]int{{8, 1}, {4, 2}} {
		w, err := mpi.NewWorld(mpi.Options{Cluster: hw.Longhorn(), Nodes: shape[0], PPN: shape[1], Engine: cfg, Tuner: ct, Allreduce: pin})
		if err != nil {
			return nil, err
		}
		for _, size := range reduceSizes {
			s.cells = append(s.cells, allreduceCell(w, src, seed, id, size, tt))
			id++
		}
		hier = w
	}
	s.cells = append(s.cells, alltoallCell(hier, src, seed, id))
	s.codecSample = src.payload(seed, 2, 0, (1<<20)/4) // rank 0 of the 1 MB cell on 8x1
	return s, nil
}

func allreduceCell(w *mpi.World, src *sources, seed uint64, id, nbytes int, tt *timedTuner) *cell {
	size := w.Size()
	n := nbytes / 4
	sends := make([]*gpusim.Buffer, size)
	recvs := make([]*gpusim.Buffer, size)
	ref := make([]float64, n)
	abs := make([]float64, n)
	for i := 0; i < size; i++ {
		vals := src.payload(seed, id, i, n)
		for k, v := range vals {
			ref[k] += float64(v)
			abs[k] += math.Abs(float64(v))
		}
		sends[i] = deviceBuffer(w.Rank(i), floatsToBytes(vals))
		recvs[i] = deviceBuffer(w.Rank(i), make([]byte, nbytes))
	}
	// A float32 sum of size terms in any order is within
	// size*u*sum|x_i| of the exact sum (u = 2^-24), final rounding
	// included. A delivered vector's error is its largest element error
	// relative to that same scale, sum|x_i|.
	bound := float64(size) * math.Ldexp(1, -24)
	c := &cell{
		name: fmt.Sprintf("allreduce.%dx%d.%dk", w.Nodes(), w.PPN(), nbytes>>10),
		kind: "allreduce", world: w, opsPerCall: 1, tuned: tt != nil,
		delivered: int64(size) * int64(nbytes),
		prepare: func() {
			for _, b := range recvs {
				poison(b.Data)
				b.MarkDirty()
			}
		},
		run: collRun(w, func(r *mpi.Rank) error { return r.AllreduceSum(sends[r.ID()], recvs[r.ID()]) }),
		check: func() (errStat, bool) {
			var es errStat
			for _, b := range recvs {
				var worst float64
				for k := 0; k < n; k++ {
					d := math.Abs(float64(floatAt(b.Data, k)) - ref[k])
					if !(d <= bound*abs[k]) {
						return es, false
					}
					if d > 0 {
						worst = math.Max(worst, d/abs[k])
					}
				}
				es.add(worst)
			}
			return es, true
		},
	}
	if tt != nil {
		c.after = tt.advance
	}
	return c
}

func alltoallCell(w *mpi.World, src *sources, seed uint64, id int) *cell {
	size := w.Size()
	blk := alltoallPeerBytes
	sends := make([]*gpusim.Buffer, size)
	recvs := make([]*gpusim.Buffer, size)
	for i := 0; i < size; i++ {
		sends[i] = deviceBuffer(w.Rank(i), floatsToBytes(src.payload(seed, id, i, size*blk/4)))
		recvs[i] = deviceBuffer(w.Rank(i), make([]byte, size*blk))
	}
	return &cell{
		name: fmt.Sprintf("alltoall.%dx%d.%dk", w.Nodes(), w.PPN(), blk>>10), kind: "alltoall",
		world: w, opsPerCall: 1,
		delivered: int64(size*(size-1)) * int64(blk),
		prepare: func() {
			for _, b := range recvs {
				poison(b.Data)
				b.MarkDirty()
			}
		},
		run: collRun(w, func(r *mpi.Rank) error { return r.Alltoall(sends[r.ID()], recvs[r.ID()]) }),
		check: func() (errStat, bool) {
			for i, rb := range recvs {
				for j, sb := range sends {
					if !bytes.Equal(rb.Data[j*blk:(j+1)*blk], sb.Data[i*blk:(i+1)*blk]) {
						return errStat{}, false
					}
				}
			}
			return errStat{}, true
		},
	}
}

// ---- app ----

// awpConfig is the AWP-ODC proxy run of the app workload. awpodc.Run
// builds its own wavefield, so the seed enters through the time step:
// the Courant number is drawn from [0.35, 0.45), inside the 7-point
// stencil's stability limit, which changes the field the halos carry.
func awpConfig(seed uint64) awpodc.Config {
	c := 0.35 + 0.1*float64(splitmix64(seed)%1000)/1000
	return awpodc.Config{NX: 128, NY: 128, NZ: 64, Steps: 4, CourantNumber: c}
}

const (
	daskRate = 8
	// daskPeak bounds |x + x.T| for Dask's test matrix, whose entries
	// are sin + cos terms of magnitude at most 2; it turns Result.MaxErr
	// into a relative error.
	daskPeak = 4.0
)

var daskMatrix = dask.Matrix{Dim: 2048, ChunkDim: 256}

func buildApp(seed uint64, workers int) (*suite, error) {
	s := &suite{workload: "app", zfpRate: daskRate}
	acfg := awpConfig(seed)

	// Reference checksum from the same run without compression.
	ref, err := mpi.NewWorld(mpi.Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 4})
	if err != nil {
		return nil, err
	}
	refRes, err := awpodc.Run(ref, acfg)
	if err != nil {
		return nil, err
	}

	aw, err := mpi.NewWorld(mpi.Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 4,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, Workers: workers}})
	if err != nil {
		return nil, err
	}
	var awpRes awpodc.Result
	s.cells = append(s.cells, &cell{
		name: "awpodc.2x4.mpc", kind: "awpodc", world: aw, opsPerCall: acfg.Steps,
		delivered: int64(acfg.Steps) * awpHaloBytesPerStep(aw.Size(), acfg),
		run: func() (callOut, error) {
			var err error
			awpRes, err = awpodc.Run(aw, acfg)
			return callOut{sim: awpRes.TimePerStep, app: appOut{
				computeUs:    awpRes.ComputeTime.Microseconds(),
				commUs:       awpRes.CommTime.Microseconds(),
				stagingBytes: awpRes.StagingBytes,
			}}, err
		},
		check: func() (errStat, bool) { return errStat{}, awpRes.Checksum == refRes.Checksum },
	})

	dw, err := mpi.NewWorld(mpi.Options{Cluster: hw.RI2(), Nodes: 8, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: daskRate, Workers: workers}})
	if err != nil {
		return nil, err
	}
	var daskRes dask.Result
	s.cells = append(s.cells, &cell{
		name: "dask.8x1.zfp8", kind: "dask", world: dw, opsPerCall: 1,
		delivered: daskDeliveredBytes(dw.Size(), daskMatrix),
		run: func() (callOut, error) {
			var err error
			daskRes, err = dask.TransposeSum(dw, daskMatrix)
			return callOut{sim: daskRes.ExecTime, app: appOut{execUs: daskRes.ExecTime.Microseconds()}}, err
		},
		check: func() (errStat, bool) {
			e := daskRes.MaxErr / daskPeak
			return errStat{sum: e, n: 1}, e <= zfpTol(daskRate)
		},
	})
	// awpodc and dask build their data internally; the codec layer is
	// measured on a seeded Table III payload of one Dask chunk.
	s.codecSample = newSources().payload(seed, 99, 0, daskMatrix.ChunkBytes()/4)
	return s, nil
}

// awpHaloBytesPerStep is the halo payload all ranks receive in one step:
// one X face per west/east neighbor and one Y face per south/north
// neighbor on AWP-ODC's process mesh.
func awpHaloBytesPerStep(size int, c awpodc.Config) int64 {
	px, py := awpodc.ProcessGrid(size)
	xLinks := 2 * py * (px - 1)
	yLinks := 2 * px * (py - 1)
	return int64(xLinks)*int64(c.HaloBytesX()) + int64(yLinks)*int64(c.HaloBytesY())
}

// daskDeliveredBytes counts the chunks a transpose-sum ships: chunk (i,j)
// moves when (j,i) lives on another worker under Dask's round-robin
// block distribution.
func daskDeliveredBytes(workers int, m dask.Matrix) int64 {
	nc := m.Chunks()
	var n int64
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			if (i*nc+j)%workers != (j*nc+i)%workers {
				n += int64(m.ChunkBytes())
			}
		}
	}
	return n
}
