// Package cli holds the flag parsing and text-table rendering shared by
// the repository's executables (cmd/tables, cmd/figures, cmd/ombrun,
// cmd/awpodc, cmd/daskbench).
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mpicomp/internal/core"
	"mpicomp/internal/faults"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpi"
	"mpicomp/internal/simtime"
)

// EngineFlags collects the compression-engine configuration flags.
type EngineFlags struct {
	Mode    *string
	Codec   *string
	Rate    *int
	Dim     *int
	Dynamic *bool
	Workers *int
	Chunk   *string
	Cache   *int
	Credits *int
}

// AddEngineFlags registers -mode/-codec/-rate/-mpcdim/-dynamic/-workers/
// -chunk/-cache/-credits on fs. (The compression codec flag used to be
// called -algo; it was renamed so -algo could name the collective
// algorithm pin.)
func AddEngineFlags(fs *flag.FlagSet) *EngineFlags {
	return AddEngineFlagsRenamed(fs, nil)
}

// AddEngineFlagsRenamed is AddEngineFlags with some engine flags
// registered under other names, for drivers whose own flags already use
// them: rename maps an engine flag's name to its name in fs (daskbench
// keeps -chunk for the Dask chunk edge and takes the pipelined chunk size
// as -pipe-chunk).
func AddEngineFlagsRenamed(fs *flag.FlagSet, rename map[string]string) *EngineFlags {
	name := func(n string) string {
		if r := rename[n]; r != "" {
			return r
		}
		return n
	}
	return &EngineFlags{
		Mode:    fs.String(name("mode"), "opt", "compression integration: off | naive | opt"),
		Codec:   fs.String(name("codec"), "none", "compression codec: none | mpc | zfp"),
		Rate:    fs.Int(name("rate"), 16, "ZFP fixed rate in bits/value (4, 8, 16, ...)"),
		Dim:     fs.Int(name("mpcdim"), 1, "MPC dimensionality"),
		Dynamic: fs.Bool(name("dynamic"), false, "enable cost-model-driven per-message selection"),
		Workers: fs.Int(name("workers"), 0, "host codec worker pool size (0 = GOMAXPROCS, 1 = serial; cannot affect results)"),
		Chunk:   fs.String(name("chunk"), "", "pipelined-rendezvous chunk size, e.g. 256K (empty = off)"),
		Cache:   fs.Int(name("cache"), 0, "compress-once cache entries per engine (0 = default, negative = off)"),
		Credits: fs.Int(name("credits"), 0, "pipeline credit window: max chunks in flight (0 = default, negative = unlimited)"),
	}
}

// Config materializes the engine configuration from the parsed flags.
func (e *EngineFlags) Config() (core.Config, error) {
	cfg := core.Config{
		ZFPRate: *e.Rate, MPCDim: *e.Dim, Dynamic: *e.Dynamic,
		Workers: *e.Workers, CacheEntries: *e.Cache,
		PipelineCredits: *e.Credits,
	}
	if *e.Chunk != "" {
		sizes, err := ParseSizes(*e.Chunk)
		if err != nil || len(sizes) != 1 {
			return cfg, fmt.Errorf("bad -chunk %q", *e.Chunk)
		}
		cfg.PipelineChunkBytes = sizes[0]
	}
	switch strings.ToLower(*e.Mode) {
	case "off":
		cfg.Mode = core.ModeOff
	case "naive":
		cfg.Mode = core.ModeNaive
	case "opt":
		cfg.Mode = core.ModeOpt
	default:
		return cfg, fmt.Errorf("unknown -mode %q", *e.Mode)
	}
	switch strings.ToLower(*e.Codec) {
	case "none", "":
		cfg.Algorithm = core.AlgoNone
	case "mpc":
		cfg.Algorithm = core.AlgoMPC
	case "zfp":
		cfg.Algorithm = core.AlgoZFP
	default:
		return cfg, fmt.Errorf("unknown -codec %q", *e.Codec)
	}
	return cfg, nil
}

// ErrBadAlgo is the sentinel ParseAlgo failures wrap.
var ErrBadAlgo = errors.New("unknown collective algorithm")

// ParseAlgo parses a collective algorithm name (the -algo pin on
// ombrun) into its mpi enum value. Names are the AllreduceAlgo String
// forms: auto, ring, ring-blocking, rd, rab, two-level, reduce-bcast.
func ParseAlgo(s string) (mpi.AllreduceAlgo, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "auto", "":
		return mpi.AllreduceAuto, nil
	case "reduce-bcast":
		return mpi.AllreduceReduceBcast, nil
	case "ring":
		return mpi.AllreduceRing, nil
	case "ring-blocking":
		return mpi.AllreduceRingBlocking, nil
	case "rd":
		return mpi.AllreduceRecursiveDoubling, nil
	case "rab":
		return mpi.AllreduceRabenseifner, nil
	case "two-level":
		return mpi.AllreduceTwoLevel, nil
	}
	return 0, fmt.Errorf("%w %q (want auto, ring, ring-blocking, rd, rab, two-level or reduce-bcast)", ErrBadAlgo, s)
}

// ClusterByName resolves a cluster flag value.
func ClusterByName(name string) (hw.Cluster, error) {
	c, ok := hw.Clusters()[strings.ToLower(name)]
	if !ok {
		return hw.Cluster{}, fmt.Errorf("unknown cluster %q (want longhorn, frontera, lassen, ri2, sierra or ampere)", name)
	}
	return c, nil
}

// ParseSizes parses a comma-separated size list with K/M suffixes
// ("256K,1M,32M").
func ParseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		mult := 1
		switch {
		case strings.HasSuffix(part, "K"), strings.HasSuffix(part, "k"):
			mult, part = 1<<10, part[:len(part)-1]
		case strings.HasSuffix(part, "M"), strings.HasSuffix(part, "m"):
			mult, part = 1<<20, part[:len(part)-1]
		case strings.HasSuffix(part, "G"), strings.HasSuffix(part, "g"):
			mult, part = 1<<30, part[:len(part)-1]
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", part, err)
		}
		out = append(out, n*mult)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty size list")
	}
	return out, nil
}

// ParseFaults parses a fault-injection spec of the form
// "seed=7,drop=0.01,corrupt=0.005,degrade=0.1,factor=0.25" into a
// faults.Config. Chunk-granular fates use chunkdrop, chunkcorrupt,
// chunkdup, and chunkreorder. Rates are probabilities in [0,1]; omitted
// keys stay zero. An empty string yields nil (fault injection off).
func ParseFaults(s string) (*faults.Config, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	cfg := &faults.Config{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad fault option %q (want key=value)", part)
		}
		key, val := strings.ToLower(strings.TrimSpace(kv[0])), strings.TrimSpace(kv[1])
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad fault seed %q: %w", val, err)
			}
			cfg.Seed = n
		case "drop", "corrupt", "degrade", "factor",
			"chunkdrop", "chunkcorrupt", "chunkdup", "chunkreorder":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, fmt.Errorf("fault option %s=%q must be a probability in [0,1]", key, val)
			}
			switch key {
			case "drop":
				cfg.DropRate = f
			case "corrupt":
				cfg.CorruptRate = f
			case "degrade":
				cfg.DegradeRate = f
			case "factor":
				cfg.DegradeFactor = f
			case "chunkdrop":
				cfg.ChunkDropRate = f
			case "chunkcorrupt":
				cfg.ChunkCorruptRate = f
			case "chunkdup":
				cfg.ChunkDuplicateRate = f
			case "chunkreorder":
				cfg.ChunkReorderRate = f
			}
		default:
			return nil, fmt.Errorf("unknown fault option %q (want seed, drop, corrupt, degrade, factor, chunkdrop, chunkcorrupt, chunkdup, chunkreorder)", key)
		}
	}
	return cfg, nil
}

// ParseSimDuration parses a simulated duration such as "500us", "2ms",
// "1.5s" or "250ns" into a simtime.Duration.
func ParseSimDuration(s string) (simtime.Duration, error) {
	v := strings.ToLower(strings.TrimSpace(s))
	var unit simtime.Duration
	var num string
	switch {
	case strings.HasSuffix(v, "ns"):
		unit, num = 1, v[:len(v)-2]
	case strings.HasSuffix(v, "us"):
		unit, num = simtime.Microsecond, v[:len(v)-2]
	case strings.HasSuffix(v, "ms"):
		unit, num = simtime.Millisecond, v[:len(v)-2]
	case strings.HasSuffix(v, "s"):
		unit, num = simtime.Second, v[:len(v)-1]
	default:
		return 0, fmt.Errorf("bad duration %q (want a number with ns/us/ms/s suffix, e.g. 500us)", s)
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("bad duration %q (want a non-negative number with ns/us/ms/s suffix)", s)
	}
	return simtime.Duration(f * float64(unit)), nil
}

// ParseCrash parses a process-failure spec of the form
// "seed=7,crash=0.125,silent=0.06,window=2ms,codec=0.5,until=1ms" and
// merges it into cfg (which may be nil — a Config is allocated then).
// crash/silent/codec are probabilities in [0,1]; window bounds failure
// onsets; until heals codec faults past that simulated instant. An empty
// spec returns cfg unchanged.
func ParseCrash(s string, cfg *faults.Config) (*faults.Config, error) {
	if strings.TrimSpace(s) == "" {
		return cfg, nil
	}
	if cfg == nil {
		cfg = &faults.Config{}
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad crash option %q (want key=value)", part)
		}
		key, val := strings.ToLower(strings.TrimSpace(kv[0])), strings.TrimSpace(kv[1])
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad crash seed %q: %w", val, err)
			}
			cfg.Seed = n
		case "crash", "silent", "codec":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, fmt.Errorf("crash option %s=%q must be a probability in [0,1]", key, val)
			}
			switch key {
			case "crash":
				cfg.CrashRate = f
			case "silent":
				cfg.SilentRate = f
			case "codec":
				cfg.CodecRate = f
			}
		case "window", "until":
			d, err := ParseSimDuration(val)
			if err != nil {
				return nil, fmt.Errorf("crash option %s: %w", key, err)
			}
			if key == "window" {
				cfg.FailWindow = d
			} else {
				cfg.CodecUntil = d
			}
		default:
			return nil, fmt.Errorf("unknown crash option %q (want seed, crash, silent, window, codec, until)", key)
		}
	}
	return cfg, nil
}

// ParsePartition parses a link/partition fault spec of the form
// "seed=3,linkdown=0.25,outage=600us,flap=0.1,period=400us,duty=0.25,
// window=2ms,groups=0:1|2:3,at=200us,heal=1ms" and merges it into cfg
// (which may be nil — a Config is allocated then). linkdown/flap are
// per-node-pair probabilities; groups is a |-separated list of :-separated
// node-id groups naming an explicit partition plan; at/heal bound the
// partition window. An empty spec returns cfg unchanged.
func ParsePartition(s string, cfg *faults.Config) (*faults.Config, error) {
	if strings.TrimSpace(s) == "" {
		return cfg, nil
	}
	if cfg == nil {
		cfg = &faults.Config{}
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad partition option %q (want key=value)", part)
		}
		key, val := strings.ToLower(strings.TrimSpace(kv[0])), strings.TrimSpace(kv[1])
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad partition seed %q: %w", val, err)
			}
			cfg.Seed = n
		case "linkdown", "flap", "duty":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, fmt.Errorf("partition option %s=%q must be in [0,1]", key, val)
			}
			switch key {
			case "linkdown":
				cfg.LinkDownRate = f
			case "flap":
				cfg.LinkFlapRate = f
			case "duty":
				cfg.FlapDuty = f
			}
		case "outage", "period", "window", "at", "heal":
			d, err := ParseSimDuration(val)
			if err != nil {
				return nil, fmt.Errorf("partition option %s: %w", key, err)
			}
			switch key {
			case "outage":
				cfg.LinkOutage = d
			case "period":
				cfg.FlapPeriod = d
			case "window":
				cfg.LinkWindow = d
			case "at":
				cfg.PartitionAt = d
			case "heal":
				cfg.PartitionHeal = d
			}
		case "groups":
			groups, err := parseGroups(val)
			if err != nil {
				return nil, err
			}
			cfg.PartitionGroups = groups
		default:
			return nil, fmt.Errorf("unknown partition option %q (want seed, linkdown, outage, flap, period, duty, window, groups, at, heal)", key)
		}
	}
	return cfg, nil
}

// parseGroups parses a partition plan like "0:1|2:3" into node-id groups.
func parseGroups(s string) ([][]int, error) {
	var groups [][]int
	for _, g := range strings.Split(s, "|") {
		g = strings.TrimSpace(g)
		if g == "" {
			continue
		}
		var nodes []int
		for _, id := range strings.Split(g, ":") {
			n, err := strconv.Atoi(strings.TrimSpace(id))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad partition group node %q (want a non-negative node id)", id)
			}
			nodes = append(nodes, n)
		}
		groups = append(groups, nodes)
	}
	if len(groups) < 2 {
		return nil, fmt.Errorf("partition groups %q need at least two |-separated groups", s)
	}
	return groups, nil
}

// ParseHeal parses a self-heal spec of the form "on=true,attempts=4" and
// merges it into pol (typically the policy from -health). An empty spec
// returns pol unchanged.
func ParseHeal(s string, pol mpi.HealthPolicy) (mpi.HealthPolicy, error) {
	if strings.TrimSpace(s) == "" {
		return pol, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return pol, fmt.Errorf("bad heal option %q (want key=value)", part)
		}
		key, val := strings.ToLower(strings.TrimSpace(kv[0])), strings.TrimSpace(kv[1])
		switch key {
		case "on":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return pol, fmt.Errorf("heal option on=%q must be a boolean", val)
			}
			pol.SelfHeal = b
		case "attempts":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return pol, fmt.Errorf("heal option attempts=%q must be a non-negative integer", val)
			}
			pol.MaxAttempts = n
		default:
			return pol, fmt.Errorf("unknown heal option %q (want on, attempts)", key)
		}
	}
	return pol, nil
}

// ParseDetector parses a failure-detector spec of the form
// "lease=200us,confirm=300us" into an mpi.DetectorPolicy. An empty string
// yields the zero policy (detector off).
func ParseDetector(s string) (mpi.DetectorPolicy, error) {
	var pol mpi.DetectorPolicy
	if strings.TrimSpace(s) == "" {
		return pol, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return pol, fmt.Errorf("bad detector option %q (want key=value)", part)
		}
		key, val := strings.ToLower(strings.TrimSpace(kv[0])), strings.TrimSpace(kv[1])
		switch key {
		case "lease", "confirm":
			d, err := ParseSimDuration(val)
			if err != nil {
				return pol, fmt.Errorf("detector option %s: %w", key, err)
			}
			if key == "lease" {
				pol.Lease = d
			} else {
				pol.Confirm = d
			}
		default:
			return pol, fmt.Errorf("unknown detector option %q (want lease, confirm)", key)
		}
	}
	return pol, nil
}

// ParseHealth parses a failure-handling spec of the form
// "deadline=500us,shrink=true" into an mpi.HealthPolicy. An empty string
// yields the zero policy (library defaults).
func ParseHealth(s string) (mpi.HealthPolicy, error) {
	var pol mpi.HealthPolicy
	if strings.TrimSpace(s) == "" {
		return pol, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return pol, fmt.Errorf("bad health option %q (want key=value)", part)
		}
		key, val := strings.ToLower(strings.TrimSpace(kv[0])), strings.TrimSpace(kv[1])
		switch key {
		case "deadline":
			d, err := ParseSimDuration(val)
			if err != nil {
				return pol, fmt.Errorf("health option deadline: %w", err)
			}
			pol.Deadline = d
		case "shrink":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return pol, fmt.Errorf("health option shrink=%q must be a boolean", val)
			}
			pol.ShrinkCollectives = b
		default:
			return pol, fmt.Errorf("unknown health option %q (want deadline, shrink)", key)
		}
	}
	return pol, nil
}

// ParseBreaker parses a codec-circuit-breaker spec of the form
// "threshold=3,cooldown=2ms,seed=11" into a core.BreakerPolicy. An empty
// string yields the zero policy (breaker off).
func ParseBreaker(s string) (core.BreakerPolicy, error) {
	var pol core.BreakerPolicy
	if strings.TrimSpace(s) == "" {
		return pol, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return pol, fmt.Errorf("bad breaker option %q (want key=value)", part)
		}
		key, val := strings.ToLower(strings.TrimSpace(kv[0])), strings.TrimSpace(kv[1])
		switch key {
		case "threshold":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return pol, fmt.Errorf("breaker option threshold=%q must be a non-negative integer", val)
			}
			pol.Threshold = n
		case "cooldown":
			d, err := ParseSimDuration(val)
			if err != nil {
				return pol, fmt.Errorf("breaker option cooldown: %w", err)
			}
			pol.Cooldown = d
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return pol, fmt.Errorf("bad breaker seed %q: %w", val, err)
			}
			pol.Seed = n
		default:
			return pol, fmt.Errorf("unknown breaker option %q (want threshold, cooldown, seed)", key)
		}
	}
	return pol, nil
}

// FormatBytes renders a byte count with a binary suffix ("32M", "256K").
func FormatBytes(n int) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dG", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return strconv.Itoa(n)
	}
}

// Table renders aligned text tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Write renders the table to w.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// Fatal prints the error to stderr and exits with status 1 when err is
// non-nil; it is a no-op otherwise.
func Fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
