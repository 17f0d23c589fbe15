package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"dasc/internal/bench"
	"dasc/internal/core"
	"dasc/internal/model"
	"dasc/internal/obs"
	"dasc/internal/sim"
)

// simWorkload names the dasc-bench experiments a sim workload sweeps and
// the nominal wall time of one pass over its cells at scale 1, from which
// the number of passes follows.
type simWorkload struct {
	experiments []string
	passTime    time.Duration
}

// simWorkloads are Figure 10 (synthetic, m = 2000…8000 tasks) and Figures 3
// and 6 (the Meetup substitute, distance and waiting-time ranges).
var simWorkloads = map[string]simWorkload{
	"sim-synthetic": {experiments: []string{"fig10"}, passTime: 5 * time.Second},
	"sim-meetup":    {experiments: []string{"fig3", "fig6"}, passTime: 4500 * time.Millisecond},
}

// instancesPerPoint is how many instances each sweep point runs. An
// instance's score varies by several percent from seed to seed; two per
// point keep the run-to-run spread of the score small.
const instancesPerPoint = 2

// The instance set is generated at least minSetupReps times, and more (up
// to maxSetupReps) while the repeats take less than minSetupTime in total;
// setup_s is the median.
const (
	minSetupReps = 3
	maxSetupReps = 15
	minSetupTime = time.Second
)

// simPoint is one sweep point: a generated instance and the batch interval
// its workload runs at.
type simPoint struct {
	label    string
	interval float64
	in       *model.Instance
}

// genPoints generates every sweep point of the workload as dasc-bench does
// for a cell: the experiment's base workload with the point applied, at the
// given scale. dasc-bench gives every point the same seed; here each point
// draws its own from the workload seed, so one run averages over as many
// independent instances as the sweep has points.
func genPoints(workload string, scale float64, seed int64) ([]simPoint, error) {
	var pts []simPoint
	seeds := rand.New(rand.NewSource(seed))
	for _, id := range simWorkloads[workload].experiments {
		exp, err := bench.Lookup(id)
		if err != nil {
			return nil, err
		}
		for _, p := range exp.Points {
			w := exp.Base
			p.Apply(&w)
			for i := 0; i < instancesPerPoint; i++ {
				in, err := w.Generate(scale, seeds.Int63())
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", id, p.Label, err)
				}
				pts = append(pts, simPoint{label: id + " " + p.Label, interval: w.BatchInterval, in: in})
			}
		}
	}
	return pts, nil
}

// cellOut is the output of one cell (one instance under one allocator) that
// every pass must reproduce exactly.
type cellOut struct {
	Assigned, Wasted, Expired int
	Travel                    float64
}

type passMode int

const (
	plainPass  passMode = iota // timed, untraced
	verifyPass                 // engine-cache and game-worklist differentials on
	tracedPass                 // Assign wrapped, OnBatch traces read
)

// passStats is what one pass over all cells measured.
type passStats struct {
	wall      time.Duration
	cellWall  []float64   // per cell: seconds in sim.New and Run
	cellCPU   []float64   // per cell: CPU seconds of the process meanwhile
	cellSteps [][]float64 // plain, per cell: wall time of each allocating batch step, ms

	// traced only
	newD, runD time.Duration            // Σ time in sim.New and in Run
	assign     map[string]time.Duration // Σ time in Allocator.Assign by allocator
	mem        memDelta
}

// stepClock times each allocating batch step of Platform.Run from outside.
// A step runs from one entry into the allocator to the next; the first
// starts with Run and the last ends with it, so the steps sum to Run's time.
type stepClock struct {
	inner core.Allocator
	last  time.Time // start of the current step
	calls int
	steps []float64
}

func (s *stepClock) Name() string { return s.inner.Name() }

func (s *stepClock) Assign(b *core.Batch) *model.Assignment {
	if s.calls > 0 {
		now := time.Now()
		s.steps = append(s.steps, ms(now.Sub(s.last)))
		s.last = now
	}
	s.calls++
	return s.inner.Assign(b)
}

// finish closes the last step at end, the return from Run.
func (s *stepClock) finish(end time.Time) {
	if s.calls > 0 {
		s.steps = append(s.steps, ms(end.Sub(s.last)))
	}
}

// assignTimer accumulates the wall time spent inside Allocator.Assign.
type assignTimer struct {
	inner core.Allocator
	d     time.Duration
}

func (a *assignTimer) Name() string { return a.inner.Name() }

func (a *assignTimer) Assign(b *core.Batch) *model.Assignment {
	start := time.Now()
	m := a.inner.Assign(b)
	a.d += time.Since(start)
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runPass runs every (point, allocator) cell once, one after another, as
// dasc-bench -exp does, and returns the cells' outputs in order. A traced
// pass adds its batch traces to agg.
func runPass(points []simPoint, seed int64, mode passMode, agg *traceAgg) ([]cellOut, *passStats, error) {
	st := &passStats{assign: map[string]time.Duration{}}
	mem0 := readMem()
	outs := make([]cellOut, 0, len(points)*len(core.AllNames()))
	start := time.Now()
	for _, pt := range points {
		for _, name := range core.AllNames() {
			alloc, err := core.NewByName(name, seed)
			if err != nil {
				return nil, nil, err
			}
			cfg := sim.Config{Allocator: alloc, BatchInterval: pt.interval}
			var clock *stepClock
			var timer *assignTimer
			switch mode {
			case plainPass:
				clock = &stepClock{inner: alloc}
				cfg.Allocator = clock
			case verifyPass:
				cfg.VerifyEngineCache = true
				cfg.VerifyGameWorklist = true
			case tracedPass:
				timer = &assignTimer{inner: alloc}
				cfg.Allocator = timer
				cfg.OnBatch = func(r sim.BatchResult) { agg.add(r.Trace) }
			}
			c0, t0 := selfCPU(), time.Now()
			p, err := sim.New(pt.in, cfg)
			if err != nil {
				return nil, nil, fmt.Errorf("%s %s: %w", pt.label, name, err)
			}
			t1 := time.Now()
			if clock != nil {
				clock.last = t1
			}
			res, err := p.Run()
			if err != nil {
				return nil, nil, fmt.Errorf("%s %s: %w", pt.label, name, err)
			}
			t2 := time.Now()
			st.cellWall = append(st.cellWall, t2.Sub(t0).Seconds())
			st.cellCPU = append(st.cellCPU, (selfCPU() - c0).Seconds())
			switch mode {
			case plainPass:
				clock.finish(t2)
				st.cellSteps = append(st.cellSteps, clock.steps)
			case tracedPass:
				st.newD += t1.Sub(t0)
				st.runD += t2.Sub(t1)
				st.assign[name] += timer.d
			}
			outs = append(outs, cellOut{
				Assigned: res.AssignedPairs,
				Wasted:   res.WastedPairs,
				Expired:  res.ExpiredTasks,
				Travel:   res.TotalTravel,
			})
		}
	}
	st.wall = time.Since(start)
	st.mem = readMem().sub(mem0)
	return outs, st, nil
}

// bestCells picks, for each cell, the pass in which it ran fastest. The
// cells are deterministic CPU-bound work, so a slower repeat only measures
// interference from the rest of the machine; the shared hosts the benchmark
// runs on slow down in phases of several seconds, which a median over a
// handful of passes does not smooth out. The number of passes does not
// depend on how fast they run (see simPasses), so two commits take the
// minimum over samples of the same size.
func bestCells(passes []*passStats) (wall, cpu float64, steps []float64) {
	for c := range passes[0].cellWall {
		best := passes[0]
		for _, p := range passes[1:] {
			if p.cellWall[c] < best.cellWall[c] {
				best = p
			}
		}
		wall += best.cellWall[c]
		cpu += best.cellCPU[c]
		steps = append(steps, best.cellSteps[c]...)
	}
	return wall, cpu, steps
}

// mismatches counts the cells of got that differ from want in any output.
func mismatches(want, got []cellOut) int {
	n := 0
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			n++
		}
	}
	return n
}

// memDelta is the Go runtime's allocation and GC activity over an interval.
type memDelta struct {
	allocBytes, gcCycles uint64
	gcPause              time.Duration
}

func readMem() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{allocBytes: m.TotalAlloc, gcCycles: uint64(m.NumGC), gcPause: time.Duration(m.PauseTotalNs)}
}

func (m memDelta) sub(o memDelta) memDelta {
	return memDelta{allocBytes: m.allocBytes - o.allocBytes, gcCycles: m.gcCycles - o.gcCycles, gcPause: m.gcPause - o.gcPause}
}

// simPasses is the number of passes a run makes: as many as fit in
// --seconds at the workload's nominal pass time, at least one; the traced
// run makes half as many of each kind. It depends on --seconds alone, not on
// how fast the passes turn out to be.
func simPasses(o Options) int {
	n := max(1, int(math.Round(o.Seconds/simWorkloads[o.Workload].passTime.Seconds())))
	if o.Trace {
		n = 2 * max(1, n/2)
	}
	return n
}

func runSim(o Options) (*Result, error) {
	var points []simPoint
	var genTimes []float64
	for len(genTimes) < minSetupReps || (len(genTimes) < maxSetupReps && sum(genTimes) < minSetupTime.Seconds()) {
		start := time.Now()
		pts, err := genPoints(o.Workload, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		genTimes = append(genTimes, time.Since(start).Seconds())
		points = pts
	}
	o.logf("%s: generated %d instances in %.2fs", o.Workload, len(points), median(genTimes))

	// The reference outputs come from a pass with both bit-exact
	// differentials on: a diverging engine cache or game worklist fails the
	// run here, before anything is timed.
	want, _, err := runPass(points, o.Seed, verifyPass, nil)
	if err != nil {
		return nil, fmt.Errorf("verification pass: %w", err)
	}
	assigned := 0
	for _, c := range want {
		assigned += c.Assigned
	}
	o.logf("%s: verification pass ok: %d cells, %d assigned pairs", o.Workload, len(want), assigned)

	var plain, traced []*passStats
	var agg traceAgg
	attempted, failed := 0, 0
	rss := startRSSSampler()
	for i, n := 0, simPasses(o); i < n; i++ {
		// The traced run alternates untraced and traced passes, so the
		// tracing overhead is measured under the same conditions.
		mode := plainPass
		if o.Trace && i%2 == 1 {
			mode = tracedPass
		}
		outs, st, err := runPass(points, o.Seed, mode, &agg)
		if err != nil {
			return nil, err
		}
		attempted += len(want)
		failed += mismatches(want, outs)
		if mode == plainPass {
			plain = append(plain, st)
		} else {
			traced = append(traced, st)
		}
	}
	peak := rss.Stop()
	o.logf("%s: %d untraced, %d traced passes, %d/%d cells reproduced", o.Workload, len(plain), len(traced), attempted-failed, attempted)

	m := metricSet{}
	if !o.Trace {
		wall, cpu, steps := bestCells(plain)
		m["setup_s"] = median(genTimes)
		m["run_s"] = wall
		m["tick_p50_ms"] = quantile(steps, 0.5)
		m["tick_p90_ms"] = quantile(steps, 0.9)
		m["cpu_s"] = cpu
		m["rss_peak_mb"] = peak
		m["assigned_pairs"] = float64(assigned)
		return m.result(false, failed == 0, attempted, failed)
	}

	// Per-layer metrics are per-pass means over the traced passes, so the
	// layers and the remainder add up to trace.wall_s exactly.
	n := float64(len(traced))
	var wall, newD, runD time.Duration
	var mem memDelta
	assign := map[string]time.Duration{}
	var plainWalls, tracedWalls []float64
	for _, p := range plain {
		plainWalls = append(plainWalls, p.wall.Seconds())
	}
	for _, p := range traced {
		tracedWalls = append(tracedWalls, p.wall.Seconds())
		wall += p.wall
		newD += p.newD
		runD += p.runD
		mem.allocBytes += p.mem.allocBytes
		mem.gcCycles += p.mem.gcCycles
		mem.gcPause += p.mem.gcPause
		for k, v := range p.assign {
			assign[k] += v
		}
	}
	var assignAll time.Duration
	for _, v := range assign {
		assignAll += v
	}
	perPass := func(d time.Duration) float64 { return d.Seconds() / n }
	zero(m, serverOnly)
	m["gen.generate_s"] = median(genTimes)
	m["model.validate_s"] = perPass(newD)
	agg.report(m, n)
	m["core.assign_s"] = perPass(assignAll)
	for label, name := range map[string]string{
		"gg": core.NameGG, "game": core.NameGame, "game5": core.NameGame5,
		"greedy": core.NameGreedy, "closest": core.NameClosest, "random": core.NameRandom,
	} {
		m["core.assign_s."+label] = perPass(assign[name])
	}
	m["core.fixpoint_s"] = m["core.alloc_s"] - m["core.assign_s"]
	other := runD.Seconds()/n - m["core.index_s"] - m["core.alloc_s"] - m["step.dispatch_s"]
	m["step.other_s"] = other
	m["tick.other_ms"] = 1000 * ratio(other, m["step.count"])
	m["trace.wall_s"] = perPass(wall)
	m["trace.unattributed_s"] = perPass(wall - newD - runD)
	m["trace.overhead_ratio"] = median(tracedWalls)/median(plainWalls) - 1
	m["runtime.alloc_bytes"] = float64(mem.allocBytes) / n
	m["runtime.gc_cycles"] = float64(mem.gcCycles) / n
	m["runtime.gc_pause_s"] = mem.gcPause.Seconds() / n
	return m.result(true, failed == 0, attempted, failed)
}

// traceAgg sums per-batch traces (sim OnBatch results or server /v1/trace
// entries).
type traceAgg struct {
	steps                                  int
	indexMS, allocMS, dispatchMS           float64
	workers, tasks                         int64
	revalidated, rebuilt                   int64
	memoHits, memoMisses                   int64
	examined, admitted, arenaAlloc         int64
	gameEvaluated, gameSkipped, gameRounds int64
	assigned, deferred                     int64
}

func (a *traceAgg) add(t obs.BatchTrace) {
	a.steps++
	a.indexMS += t.IndexBuildMS
	a.allocMS += t.AllocMS
	a.dispatchMS += t.DispatchMS
	a.workers += int64(t.Workers)
	a.tasks += int64(t.Tasks)
	a.revalidated += int64(t.WorkersRevalidated)
	a.rebuilt += int64(t.WorkersRebuilt)
	a.memoHits += t.MemoHits
	a.memoMisses += t.MemoMisses
	a.examined += t.CandidatesExamined
	a.admitted += t.CandidatesAdmitted
	a.arenaAlloc += t.ArenaAllocBytes
	a.gameEvaluated += t.GameEvaluated
	a.gameSkipped += t.GameSkipped
	a.gameRounds += int64(t.GameRounds)
	a.assigned += int64(t.Assigned)
	a.deferred += int64(t.Deferred)
}

// report sets the trace-derived metrics, dividing totals by n (passes for
// the sim, 1 for the server's single run).
func (a *traceAgg) report(m metricSet, n float64) {
	steps := float64(a.steps)
	m["core.index_s"] = a.indexMS / 1000 / n
	m["core.alloc_s"] = a.allocMS / 1000 / n
	m["step.dispatch_s"] = a.dispatchMS / 1000 / n
	m["step.count"] = steps / n
	m["tick.index_ms"] = ratio(a.indexMS, steps)
	m["tick.alloc_ms"] = ratio(a.allocMS, steps)
	m["tick.dispatch_ms"] = ratio(a.dispatchMS, steps)
	m["tick.live_workers"] = ratio(float64(a.workers), steps)
	m["tick.live_tasks"] = ratio(float64(a.tasks), steps)
	m["core.workers_revalidated"] = float64(a.revalidated) / n
	m["core.workers_rebuilt"] = float64(a.rebuilt) / n
	m["core.memo_hit_ratio"] = ratio(float64(a.memoHits), float64(a.memoHits+a.memoMisses))
	m["core.admit_ratio"] = ratio(float64(a.admitted), float64(a.examined))
	m["core.candidates_admitted"] = float64(a.admitted) / n
	m["core.arena_alloc_bytes"] = float64(a.arenaAlloc) / n
	m["core.game_evaluated"] = float64(a.gameEvaluated) / n
	m["core.game_skip_ratio"] = ratio(float64(a.gameSkipped), float64(a.gameEvaluated+a.gameSkipped))
	m["core.game_rounds"] = float64(a.gameRounds) / n
	m["core.deferred_ratio"] = ratio(float64(a.deferred), float64(a.assigned+a.deferred))
}
