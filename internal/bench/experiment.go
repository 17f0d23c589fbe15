package bench

import (
	"fmt"
	"sync"

	"dasc/internal/core"
)

// Point is one x-axis value of a sweep: a label (e.g. "[0.02, 0.025]") and a
// mutation applying it to the base workload.
type Point struct {
	Label string
	Apply func(*Workload)
}

// AllocatorSpec names an algorithm column and builds its allocator. Most
// experiments use the six paper approaches; Figure 2 and the ablations build
// custom variants.
type AllocatorSpec struct {
	Label string
	Make  func(seed int64) core.Allocator
}

// Experiment is one table/figure of the evaluation.
type Experiment struct {
	ID         string // registry key, e.g. "fig3"
	Paper      string // e.g. "Figure 3(a,b)"
	Title      string
	Axis       string // swept parameter description
	Base       Workload
	Points     []Point
	Algorithms []AllocatorSpec
	// FullScale notes the paper's population at scale 1.0, recorded in the
	// table header for context.
	FullScale string
}

// RunOptions controls an experiment run.
type RunOptions struct {
	// Scale shrinks the population (0 < Scale ≤ 1); 1 reproduces the
	// paper's sizes.
	Scale float64
	// Seed drives dataset generation and every allocator's randomness.
	Seed int64
	// Repeats averages measurements over this many seeds; zero means 1.
	Repeats int
	// Parallel runs up to this many (point, algorithm) cells concurrently;
	// zero or one is sequential. Concurrent cells contend for CPU, so use
	// parallelism for score surveys and keep the default for the paper's
	// running-time measurements.
	Parallel int
	// Progress, when non-nil, receives one line per completed cell.
	Progress func(string)
}

// Cell is one (point, algorithm) measurement, averaged over repeats.
type Cell struct {
	Score  float64
	TimeMS float64
}

// Table is an experiment's full result grid.
type Table struct {
	Experiment *Experiment
	Options    RunOptions
	// Rows[i][algLabel] is the cell for point i.
	Rows []map[string]Cell
}

// Run executes the experiment.
func (e *Experiment) Run(opt RunOptions) (*Table, error) {
	if opt.Scale <= 0 || opt.Scale > 1 {
		opt.Scale = 1
	}
	if opt.Repeats <= 0 {
		opt.Repeats = 1
	}
	tbl := &Table{Experiment: e, Options: opt}
	tbl.Rows = make([]map[string]Cell, len(e.Points))
	for i := range tbl.Rows {
		tbl.Rows[i] = make(map[string]Cell, len(e.Algorithms))
	}

	type cellJob struct {
		point int
		alg   int
	}
	jobs := make([]cellJob, 0, len(e.Points)*len(e.Algorithms))
	for pi := range e.Points {
		for ai := range e.Algorithms {
			jobs = append(jobs, cellJob{point: pi, alg: ai})
		}
	}

	runCell := func(j cellJob) (Cell, error) {
		w := e.Base
		e.Points[j.point].Apply(&w)
		spec := e.Algorithms[j.alg]
		var scores, times []float64
		for rep := 0; rep < opt.Repeats; rep++ {
			seed := opt.Seed + int64(rep)
			in, err := w.Generate(opt.Scale, seed)
			if err != nil {
				return Cell{}, fmt.Errorf("bench: %s point %q: %w", e.ID, e.Points[j.point].Label, err)
			}
			alloc := spec.Make(seed)
			score, ms, err := w.Execute(in, alloc)
			if err != nil {
				return Cell{}, fmt.Errorf("bench: %s point %q alg %q: %w", e.ID, e.Points[j.point].Label, spec.Label, err)
			}
			scores = append(scores, score)
			times = append(times, ms)
		}
		return Cell{Score: mean(scores), TimeMS: mean(times)}, nil
	}
	report := func(j cellJob, c Cell) {
		if opt.Progress != nil {
			opt.Progress(fmt.Sprintf("%s %s %s: score=%.1f time=%.2fms",
				e.ID, e.Points[j.point].Label, e.Algorithms[j.alg].Label, c.Score, c.TimeMS))
		}
	}

	if opt.Parallel <= 1 {
		for _, j := range jobs {
			c, err := runCell(j)
			if err != nil {
				return nil, err
			}
			tbl.Rows[j.point][e.Algorithms[j.alg].Label] = c
			report(j, c)
		}
		return tbl, nil
	}

	// Bounded worker pool over the cell list. Cells write to disjoint
	// (point, label) slots; the mutex only guards the maps and the error.
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, opt.Parallel)
	for _, j := range jobs {
		j := j
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			mu.Lock()
			stop := firstErr != nil
			mu.Unlock()
			if stop {
				return
			}
			c, err := runCell(j)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			tbl.Rows[j.point][e.Algorithms[j.alg].Label] = c
			report(j, c)
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return tbl, nil
}

// paperAllocators returns the six approaches of Section V in plotting order.
func paperAllocators() []AllocatorSpec {
	specs := make([]AllocatorSpec, 0, 6)
	for _, name := range core.AllNames() {
		name := name
		specs = append(specs, AllocatorSpec{
			Label: name,
			Make: func(seed int64) core.Allocator {
				a, err := core.NewByName(name, seed)
				if err != nil {
					panic(err) // unreachable: names come from AllNames
				}
				return a
			},
		})
	}
	return specs
}
