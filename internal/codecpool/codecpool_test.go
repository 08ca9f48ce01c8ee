package codecpool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countJob records which parts ran and how often.
type countJob struct {
	hits []atomic.Int32
}

func (j *countJob) RunPart(i int, s *Scratch) { j.hits[i].Add(1) }

func TestRunExecutesEveryPartOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			p := New(workers)
			j := &countJob{hits: make([]atomic.Int32, n)}
			p.Run(n, j)
			for i := range j.hits {
				if got := j.hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: part %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// sumJob writes a deterministic value into a disjoint slot per part.
type sumJob struct {
	out []int
}

func (j *sumJob) RunPart(i int, s *Scratch) {
	w := s.Words(64)
	for k := range w {
		w[k] = uint32(i + k)
	}
	total := 0
	for _, v := range w {
		total += int(v)
	}
	j.out[i] = total
}

// TestDeterministicAcrossPoolSizes runs the same job on pools of size
// 1, 2 and 8 and requires identical results: parts own disjoint output
// slots, so scheduling cannot perturb the outcome.
func TestDeterministicAcrossPoolSizes(t *testing.T) {
	const n = 137
	var ref []int
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		j := &sumJob{out: make([]int, n)}
		p.Run(n, j)
		if ref == nil {
			ref = j.out
			continue
		}
		for i := range ref {
			if ref[i] != j.out[i] {
				t.Fatalf("workers=%d: part %d = %d, serial = %d", workers, i, j.out[i], ref[i])
			}
		}
	}
}

func TestScratchReuse(t *testing.T) {
	var s Scratch
	a := s.Words(100)
	b := s.Words(50)
	if &a[0] != &b[0] {
		t.Fatal("Words did not reuse capacity")
	}
	if len(b) != 50 {
		t.Fatalf("Words(50) has len %d", len(b))
	}
	f := s.Floats(10)
	g := s.Floats(10)
	if &f[0] != &g[0] {
		t.Fatal("Floats did not reuse capacity")
	}
	x := s.Bytes(8)
	y := s.Bytes(4)
	if &x[0] != &y[0] {
		t.Fatal("Bytes did not reuse capacity")
	}
}

// TestRunZeroAlloc asserts the steady-state guarantee the engine builds
// on: after warm-up, submitting a batch allocates nothing.
func TestRunZeroAlloc(t *testing.T) {
	p := New(4)
	j := &sumJob{out: make([]int, 16)}
	p.Run(16, j) // warm worker scratches
	allocs := testing.AllocsPerRun(50, func() {
		p.Run(16, j)
	})
	if allocs != 0 {
		t.Fatalf("Run allocated %.1f objects per batch, want 0", allocs)
	}
}

// TestConcurrentRuns hammers one pool from many goroutines (the shape of
// several ranks compressing at once); correctness under -race is the
// point.
func TestConcurrentRuns(t *testing.T) {
	p := New(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				j := &sumJob{out: make([]int, 33)}
				p.Run(33, j)
				for i, v := range j.out {
					want := 0
					for k := 0; k < 64; k++ {
						want += i + k
					}
					if v != want {
						t.Errorf("goroutine %d iter %d part %d: got %d want %d", g, iter, i, v, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSharedPoolSingleton(t *testing.T) {
	if Shared() != Shared() {
		t.Fatal("Shared returned different pools")
	}
	if Shared().Workers() < 1 {
		t.Fatal("shared pool has no workers")
	}
}

func TestJobFunc(t *testing.T) {
	p := New(2)
	var hits [8]atomic.Int32
	p.Run(8, JobFunc(func(i int, s *Scratch) { hits[i].Add(1) }))
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("part %d ran %d times", i, hits[i].Load())
		}
	}
}

// spinJob burns a little CPU per part so batches have measurable busy time.
type spinJob struct{ sink []uint64 }

func (j *spinJob) RunPart(i int, s *Scratch) {
	v := uint64(i)
	for k := 0; k < 20000; k++ {
		v = v*6364136223846793005 + 1442695040888963407
	}
	j.sink[i] = v
}

// TestRunTiming: Run reports worker busy time and queue wait. Busy is
// positive for real work and, because batches run one at a time, never
// exceeds the span's wall-clock times the pool size, even with several
// submitters queueing concurrently.
func TestRunTiming(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := New(workers)
		const submitters, batches, parts = 4, 5, 16
		var busy, wait atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				j := &spinJob{sink: make([]uint64, parts)}
				for b := 0; b < batches; b++ {
					tm := p.Run(parts, j)
					if tm.Busy <= 0 || tm.Wait < 0 {
						t.Errorf("workers=%d: timing %+v", workers, tm)
					}
					busy.Add(int64(tm.Busy))
					wait.Add(int64(tm.Wait))
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		if limit := wall * time.Duration(workers); time.Duration(busy.Load()) > limit {
			t.Errorf("workers=%d: busy %v exceeds wall %v x %d", workers, time.Duration(busy.Load()), wall, workers)
		}
		if tm := p.Run(0, &spinJob{}); tm != (Timing{}) {
			t.Errorf("empty batch reported %+v", tm)
		}
	}
}
