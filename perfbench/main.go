// Command perfbench is the repository benchmark. It drives the compressed
// MPI simulator through its public entry points (mpi.NewWorld, World.Run,
// the Rank collectives, awpodc.Run and dask.TransposeSum) on one of three
// workloads, checks every output, and prints its metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Host times behind throughput_mb_s and setup_s are scaled to a reference
// host speed by a calibration probe timed around them (calib.go); the raw
// wall-clock figures are printed on the "# host:" line.
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with --trace 1 they are the per-layer ones, and the spans, per-call
// counters and CPU profile of the traced phase are written under --out.
//
// Build and run from the repository root:
//
//	bash perfbench/run.sh --workload relay --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"mpicomp/internal/core"
	"mpicomp/internal/mpi"
	"mpicomp/internal/netsim"
)

// setupRepeats is how many times an untraced run builds its workload;
// setup_s is the median.
const setupRepeats = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: relay, reduce or app")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "trace"), "directory for the traced run's spans and profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *traced == 1 {
		res, err = tracedRun(*workload, *seed, budget, *out, stdout)
	} else {
		res, err = endToEnd(*workload, *seed, budget, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envLine records what the host numbers were measured on.
func envLine(s *suite) string {
	return fmt.Sprintf("# env: nproc=%d gomaxprocs=%d codec_workers=%d go=%s workload=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), s.cells[0].world.Rank(0).Engine.CodecWorkers(),
		runtime.Version(), s.workload)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// buildRepeated builds the workload n times from scratch and returns the
// last suite with every set-up time, in seconds at reference speed and
// in raw wall-clock seconds.
func buildRepeated(workload string, seed uint64, n int) (s *suite, ref, raw []float64, err error) {
	for i := 0; i < n; i++ {
		s = nil
		runtime.GC()
		before := probe()
		t0 := time.Now()
		s, err = build(workload, seed, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		wall := time.Since(t0).Seconds()
		ref = append(ref, wall*speedScale(before, probe()))
		raw = append(raw, wall)
	}
	return s, ref, raw, nil
}

// endToEnd is the untraced run: set-up repeated setupRepeats times, then
// one measured phase.
func endToEnd(workload string, seed uint64, budget time.Duration, stdout io.Writer) (result, error) {
	s, setups, rawSetups, err := buildRepeated(workload, seed, setupRepeats)
	if err != nil {
		return result{}, err
	}
	p := s.runPhase(budget, 0, false)
	fmt.Fprintln(stdout, envLine(s))
	fmt.Fprintf(stdout, "# host: wall-clock throughput %.4g MB/s, set-up %.4g s; calibration probe median %.1f us (reference %.1f us)\n",
		p.rawMBps(), median(rawSetups), 1e6*median(p.probes), 1e6*refProbe.Seconds())
	if line := picksLine(s); line != "" {
		fmt.Fprintln(stdout, line)
	}
	m := endToEndMetrics(s, p, median(setups))
	printMetrics(stdout, m)
	fmt.Fprintf(stdout, "%-36s %14d count\n%-36s %14d count\n", "ops", p.ops, "failed_ops", p.failed)
	return result{Correct: p.failed == 0, Attempted: p.ops + p.failed, Failed: p.failed, Metrics: m}, nil
}

func endToEndMetrics(s *suite, p phase, setup float64) map[string]metric {
	ratio := 1.0
	if s.codec.bytesOut > 0 {
		ratio = float64(s.codec.bytesIn) / float64(s.codec.bytesOut)
	}
	return map[string]metric{
		"sim_us":          {p.simUs(), "us"},
		"throughput_mb_s": {p.mbps(), "MB/s"},
		"setup_s":         {setup, "s"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"alloc_mb_per_gb": {median(p.roundAllocPerGB), "MB/GB"},
		"ratio":           {ratio, "x"},
		"max_rel_err":     {p.relErr.mean(), "1"},
	}
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// picksLine names the schedule the autotuner ran last on each tuned cell.
func picksLine(s *suite) string {
	line := ""
	for _, c := range s.cells {
		if c.tuned {
			line += fmt.Sprintf(" %s=%s", c.name, c.pick)
		}
	}
	if line == "" {
		return ""
	}
	return "# picks:" + line
}

// opKinds are the Rank.* call kinds mpi.op_host_ms reports.
var opKinds = []string{"bcast", "allgather", "allreduce", "alltoall"}

// tracedRun measures the budget untraced, then the budget again traced
// with spans, per-call counters, replays and a CPU profile, and reports
// the per-layer metrics plus the tracing overhead between the two.
func tracedRun(workload string, seed uint64, budget time.Duration, outDir string, stdout io.Writer) (result, error) {
	s, err := build(workload, seed, 0)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(stdout, envLine(s))
	plain := s.runPhase(budget, 0, false)
	if line := picksLine(s); line != "" {
		fmt.Fprintln(stdout, line)
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	p := s.runPhase(budget, 0, true)
	pprof.StopCPUProfile()

	m, notes, err := layerMetrics(s, p, seed)
	if err != nil {
		return result{}, err
	}
	pkgs, _, err := selfByPackage(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	for layer, pct := range layerShares(pkgs) {
		m[layer+".host_self_pct"] = metric{pct, "%"}
	}
	overhead := 0.0
	if base := plain.mbps(); base > 0 {
		overhead = 100 * (base - p.mbps()) / base
	}
	m["bench.trace_overhead_pct"] = metric{overhead, "%"}
	printMetrics(stdout, m)
	for _, n := range notes {
		fmt.Fprintln(stdout, "# unavailable:", n)
	}
	if err := writeTrace(outDir, s, p, seed, prof.Bytes(), m, notes); err != nil {
		return result{}, err
	}
	failed := plain.failed + p.failed
	return result{Correct: failed == 0, Attempted: plain.ops + p.ops + failed, Failed: failed, Metrics: m}, nil
}

// layerMetrics computes every per-layer metric except the profile shares
// and the tracing overhead, plus notes naming the metrics the workload
// cannot exercise (reported as 0).
func layerMetrics(s *suite, p phase, seed uint64) (map[string]metric, []string, error) {
	m := map[string]metric{}
	var notes []string
	rates, err := codecRates(s.codecSample, s.zfpRate, 250*time.Millisecond)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range rates {
		m[k] = metric{v, "MB/s"}
	}
	ops := math.Max(float64(p.ops), 1)
	perOp := func(v int64) float64 { return float64(v) / ops }
	c := p.ctr
	m["core.compressions"] = metric{perOp(c.compressions), "count/op"}
	m["core.decompressions"] = metric{perOp(c.decompressions), "count/op"}
	m["core.bypasses"] = metric{perOp(c.bypasses), "count/op"}
	hitPct := 0.0
	if c.cacheHits+c.cacheMisses > 0 {
		hitPct = 100 * float64(c.cacheHits) / float64(c.cacheHits+c.cacheMisses)
	}
	m["core.cache.hit_pct"] = metric{hitPct, "%"}
	m["core.relayed_mb"] = metric{perOp(c.relayed) / 1e6, "MB/op"}
	m["core.pool_fallbacks"] = metric{float64(c.poolFallbacks), "count"}

	// The paper's Fig. 6/8/10 phases per operation, for the mean rank.
	// Partition combines are copies; ZFP's stream set-up and grid query
	// are the "" (other) phase.
	phaseKey := map[core.Phase]string{
		core.PhaseMemAlloc: "mem_alloc", core.PhaseCompressKernel: "compress",
		core.PhaseDecompressKernel: "decompress", core.PhaseDataCopy: "data_copy",
		core.PhaseCombine: "data_copy", core.PhaseChecksum: "checksum", core.PhaseComm: "comm",
	}
	perPhase := map[string]float64{}
	for ph, v := range p.rankPhaseUs {
		perPhase[phaseKey[ph]] += v / ops
	}
	var engine float64
	for _, name := range []string{"mem_alloc", "compress", "decompress", "data_copy", "checksum"} {
		m["core.sim."+name+"_us"] = metric{perPhase[name], "us/op"}
		engine += perPhase[name]
	}
	// The mpi layer never charges PhaseComm, so communication is the
	// mean operation's simulated latency not spent in engine phases.
	m["core.sim.comm_us"] = metric{math.Max(0, p.simSumUs/ops-engine-perPhase[""]), "us/op"}

	for _, kind := range opKinds {
		v := p.opHostMs[kind]
		if len(v) == 0 {
			notes = append(notes, fmt.Sprintf("mpi.op_host_ms.%s: the workload makes no Rank.* %s call of its own", kind, kind))
		}
		m["mpi.op_host_ms."+kind+".p50"] = metric{quantile(v, 0.5), "ms"}
		m["mpi.op_host_ms."+kind+".p90"] = metric{quantile(v, 0.9), "ms"}
	}
	m["mpi.pipeline.chunks"] = metric{perOp(c.pipeChunks), "count/op"}
	m["mpi.pipeline.credit_stalls"] = metric{perOp(c.creditStalls), "count/op"}
	m["mpi.pipeline.bypass_small"] = metric{perOp(c.bypassSmall), "count/op"}

	var pickUs, observeUs, probes, regret, converge float64
	if tt := s.tuner; tt != nil {
		if n := tt.picks.Load(); n > 0 {
			pickUs = float64(tt.pickNs.Load()) / float64(n) / 1e3
		}
		if n := tt.observes.Load(); n > 0 {
			observeUs = float64(tt.observeNs.Load()) / float64(n) / 1e3
		}
		probes = float64(tt.probes.Load())
		var sum float64
		for _, r := range s.convergeRounds {
			sum += float64(r)
		}
		converge = sum / float64(len(s.convergeRounds))
		regret, err = tunerRegret(s, p, seed)
		if err != nil {
			return nil, nil, err
		}
	} else {
		notes = append(notes, "tune.*: the workload runs no autotuned collective")
	}
	m["tune.pick_us"] = metric{pickUs, "us"}
	m["tune.observe_us"] = metric{observeUs, "us"}
	m["tune.probe_calls"] = metric{probes, "count"}
	m["tune.regret_pct"] = metric{regret, "%"}
	m["tune.converge_rounds"] = metric{converge, "count"}

	m["netsim.inter_mb"] = metric{perOp(c.interBytes) / 1e6, "MB/op"}
	m["netsim.intra_mb"] = metric{perOp(c.intraBytes) / 1e6, "MB/op"}
	m["netsim.messages"] = metric{perOp(c.messages), "count/op"}
	m["netsim.control_pkts"] = metric{perOp(c.control), "count/op"}
	div := 0.0
	if p.replays > 0 {
		div = 100 * float64(p.divergent) / float64(p.replays)
	}
	m["netsim.replay_divergent_pct"] = metric{div, "%"}

	var staging, compute, comm, exec float64
	if p.awpCalls > 0 {
		steps := float64(p.awpOps)
		staging = float64(p.app.stagingBytes) / 1e6 / steps
		compute = p.app.computeUs / float64(p.awpCalls)
		comm = p.app.commUs / float64(p.awpCalls)
	} else {
		notes = append(notes, "dtype.staging_mb, awpodc.*: the workload runs no AWP-ODC step")
	}
	if p.daskCall > 0 {
		exec = p.app.execUs / float64(p.daskCall)
	} else {
		notes = append(notes, "dask.sim_exec_us: the workload runs no Dask transpose-sum")
	}
	m["dtype.staging_mb"] = metric{staging, "MB/step"}
	m["awpodc.sim_compute_us_per_step"] = metric{compute, "us"}
	m["awpodc.sim_comm_us_per_step"] = metric{comm, "us"}
	m["dask.sim_exec_us"] = metric{exec, "us"}
	return m, notes, nil
}

// regretCalls is how many calls each pinned schedule gets per cell.
const regretCalls = 3

// tunerRegret compares, per allreduce cell, the mean simulated latency of
// the tuner's picks in the phase with the fastest schedule pinned on the
// same payloads, and returns the mean excess in percent. It can read
// below zero when the pick is the fastest schedule and the phase's
// fabric races happened to settle faster than the pinned calls'.
func tunerRegret(s *suite, p phase, seed uint64) (float64, error) {
	best := map[string]float64{}
	for _, algo := range []mpi.AllreduceAlgo{mpi.AllreduceRing, mpi.AllreduceRecursiveDoubling,
		mpi.AllreduceRabenseifner, mpi.AllreduceTwoLevel} {
		ps, err := buildReduce(seed, 0, algo)
		if err != nil {
			return 0, err
		}
		for _, c := range ps.cells {
			if c.kind != "allreduce" {
				continue
			}
			hier := netsim.ClassifyTopo(c.world.Nodes(), c.world.PPN()) == netsim.TopoHierarchical
			if algo == mpi.AllreduceTwoLevel && !hier {
				continue
			}
			var sims []float64
			for i := 0; i <= regretCalls; i++ {
				r := ps.doCall(c)
				if !r.ok {
					return 0, fmt.Errorf("pinned %s on %s failed its check", algo, c.name)
				}
				if i > 0 { // the first call fills caches
					sims = append(sims, r.out.sim.Microseconds())
				}
			}
			if v, ok := best[c.name]; !ok || mean(sims) < v {
				best[c.name] = mean(sims)
			}
		}
	}
	var sum float64
	var n int
	for ci, c := range s.cells {
		b, ok := best[c.name]
		if !ok || len(p.cellSim[ci]) == 0 || b == 0 {
			continue
		}
		sum += 100 * (mean(p.cellSim[ci]) - b) / b
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

// writeTrace writes the traced phase's spans, per-call counters, metrics
// and CPU profile under dir.
func writeTrace(dir string, s *suite, p phase, seed uint64, prof []byte, m map[string]metric, notes []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", s.workload, seed))
	doc := map[string]any{
		"workload":    s.workload,
		"seed":        seed,
		"env":         envLine(s),
		"metrics":     m,
		"unavailable": notes,
		"spans":       p.spans,
		"counters":    p.counterLog,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".trace.json", b, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", prof, 0o644)
}
