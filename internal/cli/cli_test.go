package cli

import (
	"bytes"
	"errors"
	"flag"
	"reflect"
	"strings"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/faults"
	"mpicomp/internal/mpi"
	"mpicomp/internal/simtime"
)

func TestEngineFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ef := AddEngineFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cfg, err := ef.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != core.ModeOpt || cfg.Algorithm != core.AlgoNone || cfg.ZFPRate != 16 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestEngineFlagsParsing(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ef := AddEngineFlags(fs)
	if err := fs.Parse([]string{"-mode", "naive", "-codec", "zfp", "-rate", "8", "-dynamic"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := ef.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != core.ModeNaive || cfg.Algorithm != core.AlgoZFP || cfg.ZFPRate != 8 || !cfg.Dynamic {
		t.Fatalf("parsed wrong: %+v", cfg)
	}
}

func TestEngineFlagsRenamed(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	edge := fs.Int("chunk", 0, "a driver's own -chunk")
	ef := AddEngineFlagsRenamed(fs, map[string]string{"chunk": "pipe-chunk"})
	if err := fs.Parse([]string{"-chunk", "64", "-pipe-chunk", "128K", "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := ef.Config()
	if err != nil {
		t.Fatal(err)
	}
	if *edge != 64 || cfg.PipelineChunkBytes != 128<<10 || cfg.Workers != 2 {
		t.Fatalf("parsed wrong: edge=%d cfg=%+v", *edge, cfg)
	}
}

func TestEngineFlagsRejectsUnknown(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "bogus"},
		{"-codec", "lz4"},
	} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		ef := AddEngineFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, err := ef.Config(); err == nil {
			t.Fatalf("args %v should be rejected", args)
		}
	}
}

func TestParseAlgo(t *testing.T) {
	good := map[string]mpi.AllreduceAlgo{
		"auto":          mpi.AllreduceAuto,
		"":              mpi.AllreduceAuto,
		"reduce-bcast":  mpi.AllreduceReduceBcast,
		"ring":          mpi.AllreduceRing,
		"ring-blocking": mpi.AllreduceRingBlocking,
		"rd":            mpi.AllreduceRecursiveDoubling,
		"RAB":           mpi.AllreduceRabenseifner,
		" two-level ":   mpi.AllreduceTwoLevel,
	}
	for in, want := range good {
		got, err := ParseAlgo(in)
		if err != nil {
			t.Errorf("ParseAlgo(%q): %v", in, err)
		} else if got != want {
			t.Errorf("ParseAlgo(%q) = %v, want %v", in, got, want)
		}
	}
	for _, in := range []string{"bogus", "ringz", "recursive-doubling", "rab2", "mpc"} {
		if _, err := ParseAlgo(in); !errors.Is(err, ErrBadAlgo) {
			t.Errorf("ParseAlgo(%q) err = %v, want ErrBadAlgo", in, err)
		}
	}
	// Round trip: every accepted name is the enum's own String form.
	for _, a := range []mpi.AllreduceAlgo{
		mpi.AllreduceAuto, mpi.AllreduceReduceBcast, mpi.AllreduceRing,
		mpi.AllreduceRingBlocking, mpi.AllreduceRecursiveDoubling,
		mpi.AllreduceRabenseifner, mpi.AllreduceTwoLevel,
	} {
		got, err := ParseAlgo(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlgo(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
}

func TestClusterByName(t *testing.T) {
	c, err := ClusterByName("Frontera")
	if err != nil || c.Name != "Frontera Liquid" {
		t.Fatalf("lookup failed: %v %v", c.Name, err)
	}
	if _, err := ClusterByName("summit"); err == nil {
		t.Fatal("unknown cluster should fail")
	}
}

func TestParseSizes(t *testing.T) {
	got, err := ParseSizes("256K, 1M,32M,7")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{256 << 10, 1 << 20, 32 << 20, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sizes: %v", got)
		}
	}
	if _, err := ParseSizes(""); err == nil {
		t.Fatal("empty should fail")
	}
	if _, err := ParseSizes("12Q"); err == nil {
		t.Fatal("bad suffix should fail")
	}
	g, err := ParseSizes("1G")
	if err != nil || g[0] != 1<<30 {
		t.Fatalf("G suffix: %v %v", g, err)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int]string{
		7:         "7",
		1 << 10:   "1K",
		256 << 10: "256K",
		32 << 20:  "32M",
		2 << 30:   "2G",
		1500:      "1500",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d)=%q want %q", n, got, want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Name", "Value")
	tbl.Row("alpha", 1)
	tbl.Row("a-much-longer-name", 3.14159)
	var buf bytes.Buffer
	tbl.Write(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "Name") || !strings.Contains(lines[3], "3.142") {
		t.Fatalf("rendering wrong:\n%s", out)
	}
	// Columns align: every line has the same prefix width for column 2.
	idx0 := strings.Index(lines[0], "Value")
	idx3 := strings.Index(lines[3], "3.142")
	if idx0 != idx3 {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestFatalNilIsNoop(t *testing.T) {
	Fatal(nil) // must not exit
}

func TestParseFaults(t *testing.T) {
	if cfg, err := ParseFaults(""); err != nil || cfg != nil {
		t.Fatalf("empty spec: cfg=%v err=%v", cfg, err)
	}
	cfg, err := ParseFaults("seed=7, drop=0.01, corrupt=0.005, degrade=0.1, factor=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.DropRate != 0.01 || cfg.CorruptRate != 0.005 ||
		cfg.DegradeRate != 0.1 || cfg.DegradeFactor != 0.25 {
		t.Fatalf("parsed config wrong: %+v", cfg)
	}
	if !cfg.Enabled() {
		t.Fatal("parsed config should be enabled")
	}
	for _, bad := range []string{"drop=2", "drop=-0.1", "bogus=1", "drop", "seed=x"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("spec %q should fail to parse", bad)
		}
	}
}

func TestParseSimDuration(t *testing.T) {
	good := map[string]simtime.Duration{
		"250ns": 250,
		"500us": 500 * simtime.Microsecond,
		"2ms":   2 * simtime.Millisecond,
		"1.5s":  simtime.Duration(1.5 * float64(simtime.Second)),
		"0us":   0,
		" 3ms ": 3 * simtime.Millisecond,
	}
	for in, want := range good {
		got, err := ParseSimDuration(in)
		if err != nil {
			t.Errorf("ParseSimDuration(%q): %v", in, err)
		} else if got != want {
			t.Errorf("ParseSimDuration(%q) = %v, want %v", in, got, want)
		}
	}
	for _, in := range []string{"", "500", "abc", "-2ms", "2 hours", "ms"} {
		if _, err := ParseSimDuration(in); err == nil {
			t.Errorf("ParseSimDuration(%q) accepted", in)
		}
	}
}

func TestParseCrash(t *testing.T) {
	// Empty spec leaves cfg alone, including a nil one.
	if cfg, err := ParseCrash("", nil); err != nil || cfg != nil {
		t.Errorf("empty spec gave cfg=%v err=%v", cfg, err)
	}

	cfg, err := ParseCrash("seed=7,crash=0.125,silent=0.06,window=2ms,codec=0.5,until=1ms", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := faults.Config{
		Seed: 7, CrashRate: 0.125, SilentRate: 0.06,
		FailWindow: 2 * simtime.Millisecond,
		CodecRate:  0.5, CodecUntil: simtime.Millisecond,
	}
	if !reflect.DeepEqual(*cfg, want) {
		t.Errorf("ParseCrash = %+v, want %+v", *cfg, want)
	}

	// Merging into an existing config (from -faults) keeps its fields.
	base := &faults.Config{Seed: 1, DropRate: 0.25}
	cfg, err = ParseCrash("crash=0.5", base)
	if err != nil {
		t.Fatal(err)
	}
	if cfg != base || cfg.DropRate != 0.25 || cfg.CrashRate != 0.5 || cfg.Seed != 1 {
		t.Errorf("merge mangled the base config: %+v", *cfg)
	}

	for _, in := range []string{
		"crash", "crash=2", "crash=-0.1", "silent=x", "codec=1.5",
		"window=5", "until=-1ms", "seed=abc", "bogus=1",
	} {
		if _, err := ParseCrash(in, nil); err == nil {
			t.Errorf("ParseCrash(%q) accepted", in)
		}
	}
}

func TestParsePartition(t *testing.T) {
	// Empty spec leaves cfg alone, including a nil one.
	if cfg, err := ParsePartition("", nil); err != nil || cfg != nil {
		t.Errorf("empty spec gave cfg=%v err=%v", cfg, err)
	}

	cfg, err := ParsePartition(
		"seed=3,linkdown=0.25,outage=600us,flap=0.1,period=400us,duty=0.25,window=2ms,groups=0:1|2:3,at=200us,heal=1ms", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := faults.Config{
		Seed: 3, LinkDownRate: 0.25,
		LinkOutage:      600 * simtime.Microsecond,
		LinkFlapRate:    0.1,
		FlapPeriod:      400 * simtime.Microsecond,
		FlapDuty:        0.25,
		LinkWindow:      2 * simtime.Millisecond,
		PartitionGroups: [][]int{{0, 1}, {2, 3}},
		PartitionAt:     200 * simtime.Microsecond,
		PartitionHeal:   simtime.Millisecond,
	}
	if !reflect.DeepEqual(*cfg, want) {
		t.Errorf("ParsePartition = %+v, want %+v", *cfg, want)
	}
	if !cfg.LinkFaults() {
		t.Error("parsed config should enable link faults")
	}

	// Merging into an existing config (from -faults/-crash) keeps its fields.
	base := &faults.Config{Seed: 1, CrashRate: 0.5}
	cfg, err = ParsePartition("linkdown=0.125", base)
	if err != nil {
		t.Fatal(err)
	}
	if cfg != base || cfg.CrashRate != 0.5 || cfg.LinkDownRate != 0.125 || cfg.Seed != 1 {
		t.Errorf("merge mangled the base config: %+v", *cfg)
	}

	for _, in := range []string{
		"linkdown", "linkdown=2", "flap=-0.1", "duty=x", "outage=5",
		"at=-1ms", "groups=0:1", "groups=0:x|2", "seed=abc", "bogus=1",
	} {
		if _, err := ParsePartition(in, nil); err == nil {
			t.Errorf("ParsePartition(%q) accepted", in)
		}
	}
}

func TestParseHeal(t *testing.T) {
	base := mpi.HealthPolicy{Deadline: 500 * simtime.Microsecond}
	if pol, err := ParseHeal("", base); err != nil || pol != base {
		t.Errorf("empty spec gave %+v err=%v", pol, err)
	}
	pol, err := ParseHeal("on=true,attempts=3", base)
	if err != nil {
		t.Fatal(err)
	}
	if !pol.SelfHeal || pol.MaxAttempts != 3 || pol.Deadline != base.Deadline {
		t.Errorf("ParseHeal = %+v", pol)
	}
	for _, in := range []string{"on=maybe", "attempts=-1", "attempts=x", "on", "retry=2"} {
		if _, err := ParseHeal(in, base); err == nil {
			t.Errorf("ParseHeal(%q) accepted", in)
		}
	}
}

func TestParseDetector(t *testing.T) {
	if pol, err := ParseDetector(""); err != nil || pol.Enabled() {
		t.Errorf("empty spec gave %+v err=%v", pol, err)
	}
	pol, err := ParseDetector("lease=200us,confirm=300us")
	if err != nil {
		t.Fatal(err)
	}
	if pol.Lease != 200*simtime.Microsecond || pol.Confirm != 300*simtime.Microsecond {
		t.Errorf("ParseDetector = %+v", pol)
	}
	if !pol.Enabled() {
		t.Error("parsed detector should be enabled")
	}
	for _, in := range []string{"lease=5", "confirm", "window=1ms"} {
		if _, err := ParseDetector(in); err == nil {
			t.Errorf("ParseDetector(%q) accepted", in)
		}
	}
}

func TestParseHealth(t *testing.T) {
	if pol, err := ParseHealth(""); err != nil || pol != (mpi.HealthPolicy{}) {
		t.Errorf("empty spec gave %+v err=%v", pol, err)
	}
	pol, err := ParseHealth("deadline=500us,shrink=true")
	if err != nil {
		t.Fatal(err)
	}
	if pol.Deadline != 500*simtime.Microsecond || !pol.ShrinkCollectives {
		t.Errorf("ParseHealth = %+v", pol)
	}
	for _, in := range []string{"deadline=5", "shrink=maybe", "deadline", "timeout=1ms"} {
		if _, err := ParseHealth(in); err == nil {
			t.Errorf("ParseHealth(%q) accepted", in)
		}
	}
}

func TestParseBreaker(t *testing.T) {
	if pol, err := ParseBreaker(""); err != nil || pol.Enabled() {
		t.Errorf("empty spec gave %+v err=%v", pol, err)
	}
	pol, err := ParseBreaker("threshold=3,cooldown=2ms,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	want := core.BreakerPolicy{Threshold: 3, Cooldown: 2 * simtime.Millisecond, Seed: 11}
	if pol != want {
		t.Errorf("ParseBreaker = %+v, want %+v", pol, want)
	}
	for _, in := range []string{"threshold=-1", "threshold=x", "cooldown=5", "seed=z", "trip=3"} {
		if _, err := ParseBreaker(in); err == nil {
			t.Errorf("ParseBreaker(%q) accepted", in)
		}
	}
}
