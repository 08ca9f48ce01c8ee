// Command daskbench runs the Dask data-science benchmark of Section VII-B:
// the cuPy transpose-sum (y = x + x.T) over distributed array chunks,
// reporting execution time and aggregate throughput for one Dask rank
// count. -ranks sets the number of Dask workers (one per node) and -chunk
// the Dask chunk edge; the shared engine flags keep their meaning, except
// that the pipelined-rendezvous chunk size is -pipe-chunk here. -workers
// sizes the host codec pool, as in every driver.
//
//	daskbench -ranks 8 -dim 10000 -chunk 1000 -codec zfp -rate 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mpicomp/internal/cli"
	"mpicomp/internal/dask"
	"mpicomp/internal/mpi"
)

func main() {
	cli.Fatal(run(os.Args[1:], os.Stdout))
}

// run parses args and writes the benchmark report to stdout. Split from
// main so the command's test can drive it.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("daskbench", flag.ContinueOnError)
	cluster := fs.String("cluster", "ri2", "cluster model (paper: RI2, 1 GPU/node)")
	ranks := fs.Int("ranks", 8, "Dask workers (MPI ranks, one per node)")
	dim := fs.Int("dim", 8192, "square matrix dimension")
	chunk := fs.Int("chunk", 1024, "chunk edge length")
	eng := cli.AddEngineFlagsRenamed(fs, map[string]string{"chunk": "pipe-chunk"})
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := eng.Config()
	if err != nil {
		return err
	}
	c, err := cli.ClusterByName(*cluster)
	if err != nil {
		return err
	}
	w, err := mpi.NewWorld(mpi.Options{Cluster: c, Nodes: *ranks, PPN: 1, Engine: cfg})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "# Dask transpose-sum on %s: %d ranks, %dx%d array, %dx%d chunks\n",
		c.Name, *ranks, *dim, *dim, *chunk, *chunk)
	res, err := dask.TransposeSum(w, dask.Matrix{Dim: *dim, ChunkDim: *chunk})
	if err != nil {
		return err
	}

	t := cli.NewTable("Metric", "Value")
	t.Row("Execution time", res.ExecTime)
	t.Row("Aggregate throughput", fmt.Sprintf("%.2f GB/s", res.ThroughputGBps))
	t.Row("Compression ratio", fmt.Sprintf("%.2f", res.Ratio))
	t.Row("Max abs error vs exact", fmt.Sprintf("%.3g", res.MaxErr))
	t.Write(stdout)
	return nil
}
