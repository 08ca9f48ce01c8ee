package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"mpicomp/internal/awpodc"
	"mpicomp/internal/core"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpi"
)

// A reused world that is reset before each call must give the results a
// fresh world gives; without the reset AWP-ODC's per-step time grows,
// because awpodc.Run reports the absolute makespan.
func TestReusedWorldMatchesFresh(t *testing.T) {
	fresh := func() *suite {
		s, err := buildApp(7, 0)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := fresh()
	awp := s.cells[0]
	first := s.doCall(awp)
	if !first.ok {
		t.Fatal("first AWP-ODC call failed its checksum check")
	}
	for i := 0; i < 2; i++ {
		again := s.doCall(awp)
		if !again.ok || again.out.sim != first.out.sim || again.ctr.bytesOut != first.ctr.bytesOut ||
			again.ctr.compressions != first.ctr.compressions {
			t.Fatalf("reused call %d: sim %v bytesOut %d, fresh-world call: sim %v bytesOut %d",
				i, again.out.sim, again.ctr.bytesOut, first.out.sim, first.ctr.bytesOut)
		}
	}
	other := fresh().doCall(fresh().cells[0])
	if other.out.sim != first.out.sim || other.ctr.bytesOut != first.ctr.bytesOut {
		t.Fatalf("second fresh world: sim %v bytesOut %d, want %v %d",
			other.out.sim, other.ctr.bytesOut, first.out.sim, first.ctr.bytesOut)
	}

	// Without the reset the same call reads slower per step.
	cfg := awpConfig(7)
	w, err := mpi.NewWorld(mpi.Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 4,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := awpodc.Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := awpodc.Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.TimePerStep <= a.TimePerStep {
		t.Fatalf("unreset reuse: %v then %v per step; expected the makespan to accumulate", a.TimePerStep, b.TimePerStep)
	}
}

// countsOf is every count a run reports that must not depend on timing.
type countsOf struct {
	ops, failed                  int
	compressions, decompressions int64
	bypasses, cacheHits, misses  int64
	bytesIn, bytesOut, relayed   int64
	codecIn, codecOut            int64
	relErr                       float64
	tunerPicks, tunerProbes      int64
	picks                        string
}

func runCounts(t *testing.T, workload string, seed uint64, workers int) (countsOf, phase) {
	t.Helper()
	s, err := build(workload, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	p := s.runPhase(0, 2, true)
	c := countsOf{
		ops: p.ops, failed: p.failed,
		compressions: p.ctr.compressions, decompressions: p.ctr.decompressions,
		bypasses: p.ctr.bypasses, cacheHits: p.ctr.cacheHits, misses: p.ctr.cacheMisses,
		bytesIn: p.ctr.bytesIn, bytesOut: p.ctr.bytesOut, relayed: p.ctr.relayed,
		codecIn: s.codec.bytesIn, codecOut: s.codec.bytesOut,
		relErr: p.relErr.mean(),
	}
	if s.tuner != nil {
		c.tunerPicks = s.tuner.picks.Load()
		c.tunerProbes = s.tuner.probes.Load()
		c.picks = picksLine(s)
	}
	return c, p
}

// Counts are identical across same-seed runs and across codec worker
// counts 1 and 2; simulated latency may differ only where replays on
// identical input diverge too. The reduce case fails intermittently today:
// fabric reservations depend on host goroutine order (DESIGN.md §13), so
// simulated latencies jitter, the autotuner's online picks follow them
// between near-tied schedules (rab and two-level at 1 MB on 4x2), and
// bypass counts and the allreduce error follow the picks. It passes once
// fabric arbitration is deterministic.
func TestDeterministicCounts(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			a, pa := runCounts(t, wl, 5, 1)
			b, pb := runCounts(t, wl, 5, 2)
			if a != b {
				t.Fatalf("same seed, workers 1 vs 2:\n%+v\n%+v", a, b)
			}
			if a.failed != 0 {
				t.Fatalf("%d failed ops", a.failed)
			}
			if sa, sb := pa.simUs(), pb.simUs(); sa != sb && pa.divergent+pb.divergent == 0 {
				t.Fatalf("sim_us %v vs %v, but no replay diverged", sa, sb)
			}
		})
	}
}

func TestSeedChangesPayloads(t *testing.T) {
	src := newSources()
	a := src.payload(1, 0, 0, 8192)
	if !equalFloats(a, src.payload(1, 0, 0, 8192)) {
		t.Fatal("same seed gave different payloads")
	}
	if equalFloats(a, src.payload(2, 0, 0, 8192)) {
		t.Fatal("a different seed gave the same payload")
	}
	if awpConfig(1).CourantNumber == awpConfig(2).CourantNumber {
		t.Fatal("a different seed gave the same AWP-ODC time step")
	}
	for _, wl := range []string{"relay", "reduce"} {
		var got [][]float32
		for _, seed := range []uint64{1, 2} {
			var s *suite
			var err error
			if wl == "relay" {
				s, err = buildRelay(seed, 0)
			} else {
				s, err = buildReduce(seed, 0, mpi.AllreduceRing)
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, s.codecSample)
		}
		if equalFloats(got[0], got[1]) {
			t.Fatalf("%s: seeds 1 and 2 built the same payload", wl)
		}
	}
}

func equalFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// No host duration the benchmark reports may exceed the wall-clock it
// was measured in times GOMAXPROCS.
func TestHostDurationsBounded(t *testing.T) {
	s, err := build("reduce", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := s.runPhase(0, 1, true)
	limit := p.wall.Nanoseconds() * int64(runtime.GOMAXPROCS(0))
	var callWall float64
	for _, w := range p.cellWall {
		for _, v := range w {
			callWall += v
		}
	}
	if callWall > p.wall.Seconds() {
		t.Fatalf("calls took %vs of a %v phase", callWall, p.wall)
	}
	opWall := map[int]int64{}
	for _, sp := range p.spans {
		if sp.Dur < 0 || sp.Dur > limit {
			t.Fatalf("span %s lasted %dns, phase wall %v", sp.Name, sp.Dur, p.wall)
		}
		if !strings.HasPrefix(sp.Name, "rank.") && !strings.HasPrefix(sp.Name, "tune.") {
			opWall[sp.Op] = sp.Dur
		}
	}
	for _, sp := range p.spans {
		if strings.HasPrefix(sp.Name, "rank.") && sp.Dur > opWall[sp.Op] {
			t.Fatalf("rank %d span %dns exceeds its operation's %dns", sp.Rank, sp.Dur, opWall[sp.Op])
		}
	}
	if busy := s.tuner.pickNs.Load() + s.tuner.observeNs.Load(); busy > limit {
		t.Fatalf("tuner calls total %dns, over wall x GOMAXPROCS %dns", busy, limit)
	}
	m, _, err := layerMetrics(s, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range m {
		if v.Unit == "ms" && v.Value*1e6 > float64(limit) {
			t.Fatalf("%s = %vms exceeds wall x GOMAXPROCS", name, v.Value)
		}
	}
}

//go:noinline
func spin(d time.Duration) float64 {
	x := 1.0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestSelfByPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, total, err := selfByPackage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Skip("no samples collected")
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	if shares["mpicomp/perfbench"]+shares["main"] < 0.5 {
		t.Fatalf("spin's package got %v of the profile: %v", shares["main"], shares)
	}
	for fn, want := range map[string]string{
		"mpicomp/internal/mpi.(*Rank).bcast.func1": "mpicomp/internal/mpi",
		"runtime.memmove":                          "runtime",
		"hash/crc32.ieeeCLMUL":                     "hash/crc32",
		"main.spin":                                "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestRunOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	out.Reset()
	if code := run([]string{"--workload", "relay", "--seed", "2", "--seconds", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("last line keys: %s", lines[len(lines)-1])
	}
	var metrics map[string]metric
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sim_us", "throughput_mb_s", "setup_s", "peak_rss_mb", "alloc_mb_per_gb", "ratio", "max_rel_err"} {
		if v, ok := metrics[name]; !ok || !(v.Value > 0) {
			t.Errorf("metric %s = %+v", name, v)
		}
	}
	if !strings.HasPrefix(lines[0], "# env: nproc=") {
		t.Errorf("first line %q does not record the environment", lines[0])
	}
	if !strings.HasPrefix(lines[1], "# host: wall-clock throughput") {
		t.Errorf("second line %q does not give the raw wall-clock figures", lines[1])
	}
}

// The metrics the benchmark prints are exactly the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "relay", "--seconds", "1", "--trace", trace, "--out", t.TempDir()}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("--trace %s exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("--trace %s printed %d metrics, BENCHMARK.json declares %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("--trace %s: metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
			}
		}
	}
}
