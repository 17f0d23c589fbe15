package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"dasc/internal/geo"
	"dasc/internal/model"
)

// EngineCache carries the candidate engine across batches. A platform tick
// loop (sim.Platform.Run, server.Platform.Tick) creates one cache per run
// and calls Attach on every batch; the cache then builds each batch's
// BatchIndex incrementally from the previous one instead of from scratch.
//
// The regime this exploits is exactly the steady state of a dynamic
// platform: between consecutive batches only the workers that were assigned
// move, only a few tasks enter (new arrivals) or leave (assigned, botched or
// expired), and the clock advances. Per batch the cache therefore does:
//
//   - Unmoved workers (same location, same distance budget, readiness only
//     advanced): the cached strategy set is REVALIDATED, not rebuilt. Of
//     FeasibleFrom's four components, skill, window overlap and distance
//     budget do not depend on the clock, and the deadline check
//     depart + travel ≤ deadline is monotone in the readiness time — so a
//     cached pair can only flip feasible → infeasible, never back, and the
//     flip is decided by model.DeadlineFeasible over the memoized travel
//     time. Zero distance evaluations for these workers.
//   - Moved or new workers: rebuilt through the same skill-bucket /
//     spatial-grid path as the from-scratch build.
//   - Departed tasks: dropped from the maintained spatial grid
//     (geo.GridIndex.Remove) and filtered out of every cached set during
//     revalidation.
//   - Newly arrived tasks: probed only against workers holding their
//     required skill (for unmoved workers; moved workers see them through
//     their rebuild).
//
// The per-worker revalidate/rebuild loop fans out over the same
// deterministic chunked goroutine pool as the from-scratch build: each
// goroutine owns disjoint index slots and its own scratch buffers and slab
// arenas, so the result is bit-identical to the serial walk (and to
// newBatchIndex, which Batch.VerifyIndex checks differentially).
//
// Memory ownership is explicit and one-way: the BatchIndex returned for a
// batch owns its arena-backed strategy/cost/candidate slices and is
// immutable once returned; the cache keeps its own copies (cachedWorker
// structs from a recycled free list, task/cost rows in cache-owned
// buffers reused batch over batch). The cache never holds a reference into
// an index it handed out, so recycling cache state can never mutate a
// previously returned index (TestEngineCacheNeverMutatesReturnedIndex).
//
// Contract: a cache belongs to one platform. The travel metric must not
// change between batches (guarded best-effort by function-pointer identity:
// a change forces a full rebuild), worker and task parameters must be
// immutable per ID while cached (the platforms' registries are append-only),
// and IDs must be unique within a batch. A cache is not safe for concurrent
// Attach calls; the platforms attach under their own single-threaded loop or
// mutex.
type EngineCache struct {
	valid   bool
	distPtr uintptr
	// distID memoizes the reflect-derived code pointer of the metric, so
	// the identity check costs a pointer compare per Attach instead of a
	// reflection walk.
	distID geo.FuncID

	// workers holds the last batch's per-worker state and strategy sets,
	// keyed by worker ID. The map is reused across batches: present
	// workers are updated in place, departed ones are deleted and their
	// structs recycled through the free list. In the platforms a worker
	// only disappears by being assigned (and so moving) or by leaving its
	// window, but dropping keeps the cache sound for any caller.
	workers map[model.WorkerID]*cachedWorker
	// pending is the set of task IDs pending in the last batch, maintained
	// in place by the per-batch task diff (and rebuilt only on adopt).
	// Each pending task holds a slot, its key in the grid: slotTask maps a
	// slot back to its task (-1 when free) and freeSlots recycles departed
	// tasks' slots, so the grid's per-key storage is sized by the live task
	// count, never by the task IDs, which grow with the server's history.
	pending   map[model.TaskID]bool
	slotTask  []model.TaskID
	freeSlots []int32

	// free recycles cachedWorker structs of departed workers, buffers
	// included; structs/ids/floats are the slabs new cache-side
	// allocations are carved from.
	free    []*cachedWorker
	structs slab[cachedWorker]
	ids     slab[model.TaskID]
	floats  slab[float64]
	// gen marks which absorb pass last touched a cachedWorker; entries
	// left behind by the current pass have departed and are swept into
	// the free list. Every surviving entry is restamped every batch, so
	// wrap-around cannot produce a stale match.
	gen uint32

	// arrived is the reusable arrival-probe buffer of the task diff.
	arrived []int32

	// grid spatially indexes the pending task locations across batches,
	// keyed by slot; maintained by Insert/Remove as tasks arrive and
	// depart. nil when the metric admits no Euclidean lower bound.
	grid     *geo.GridIndex
	gridable bool
	boxScale float64
	boxArea  float64

	stats EngineCacheStats
}

// cachedWorker is one worker's state snapshot and strategy set from the last
// batch. The static parameters are recorded so a mutated registration
// invalidates the entry (falls back to a rebuild) instead of poisoning it.
type cachedWorker struct {
	loc        geo.Point
	readyAt    float64
	distBudget float64

	start, wait, velocity, maxDist float64

	gen uint32

	// tasks and costs mirror the worker's strategy set by task ID (batch
	// indexes do not survive across batches) with the aligned travel-time
	// memo. Both slices are owned by the cache — they are copies, never
	// views into a returned BatchIndex — and are reused batch over batch.
	tasks []model.TaskID
	costs []float64
}

// EngineCacheStats counts what the cache did, for observability and tests.
type EngineCacheStats struct {
	Batches        int // Attach calls
	FullRebuilds   int // batches built entirely from scratch
	WorkersReused  int // strategy sets revalidated by time arithmetic
	WorkersRebuilt int // strategy sets rebuilt through the pruned scan
	WorkersPooled  int // cachedWorker structs recycled from the free list
	TasksArrived   int // tasks probed as new arrivals
	TasksDeparted  int // tasks dropped from the cache and grid
}

// NewEngineCache returns an empty cache; the first Attach does a full build.
func NewEngineCache() *EngineCache {
	return &EngineCache{}
}

// Stats returns the cache's counters so far.
func (c *EngineCache) Stats() EngineCacheStats { return c.stats }

// PoolOccupancy returns how many recycled cachedWorker structs the free
// list currently holds.
func (c *EngineCache) PoolOccupancy() int { return len(c.free) }

// Attach installs the cache-built candidate engine as b's index (what
// b.Index() and every allocator will consume) and absorbs the batch so the
// next Attach can go incremental. If the batch's index was already built
// (someone called b.Index() first), that index is absorbed instead.
func (c *EngineCache) Attach(b *Batch) *BatchIndex {
	return c.attachN(b, runtime.NumCPU())
}

// attachN is Attach with an explicit fan-out bound, so tests can force the
// concurrent incremental path on any machine.
func (c *EngineCache) attachN(b *Batch, procs int) *BatchIndex {
	built := false
	b.idxOnce.Do(func() {
		b.idx = c.buildN(b, procs)
		built = true
	})
	if !built {
		// Someone built the index from scratch already; adopt it as the
		// incremental baseline (grid and metric identity included).
		c.adopt(b, b.idx)
	}
	return b.idx
}

func (c *EngineCache) buildN(b *Batch, procs int) *BatchIndex {
	c.stats.Batches++
	dp := c.distID.Of(b.dist)
	if !c.valid || dp != c.distPtr ||
		// A grid-able metric with no grid (first populated batch after an
		// empty one) cannot be maintained incrementally; rebuild to get one.
		(c.gridable && c.grid == nil && len(b.Tasks) > 0) {
		return c.reset(b)
	}
	return c.incrementalN(b, procs)
}

// reset performs a from-scratch build and adopts the result.
func (c *EngineCache) reset(b *Batch) *BatchIndex {
	c.stats.FullRebuilds++
	c.stats.WorkersRebuilt += len(b.Workers)
	b.rec.CacheFullRebuild()
	b.rec.AddCacheWorkersRebuilt(int64(len(b.Workers)))
	idx := newBatchIndex(b)
	c.adopt(b, idx)
	return idx
}

// adopt makes a from-scratch index (built by reset or by a caller before
// Attach) the cache's incremental baseline: it records the metric identity,
// (re)creates the maintained grid over the batch's pending tasks, and
// absorbs the worker states and strategy sets.
func (c *EngineCache) adopt(b *Batch, idx *BatchIndex) {
	c.distPtr = c.distID.Of(b.dist)
	c.grid = nil
	c.boxScale, c.boxArea = 0, 0
	scale, ok := geo.EuclideanBoundScale(b.In.Dist)
	c.gridable = ok
	if ok && len(b.Tasks) > 0 {
		box := pendingBBox(b)
		c.grid = geo.NewGridIndex(box, len(b.Tasks)+1)
		b.rec.AddGridOps(int64(len(b.Tasks)))
		c.boxScale = scale
		c.boxArea = box.Width() * box.Height()
		if c.boxArea <= 0 {
			c.boxArea = 1e-18
		}
	}
	c.refreshPending(b)
	c.absorbWorkers(b, idx)
}

// cacheScratch is one incremental-build goroutine's private state: the
// shared build scratch (buffers + slabs) plus outcome counters flushed
// once per goroutine instead of once per worker.
type cacheScratch struct {
	bs      buildScratch
	reused  int64
	rebuilt int64
}

// incrementalN builds the batch's index from the cached previous batch,
// fanning the per-worker revalidate/rebuild loop out over up to procs
// goroutines (the same deterministic chunked pool as newBatchIndexN).
func (c *EngineCache) incrementalN(b *Batch, procs int) *BatchIndex {
	idx := &BatchIndex{
		b:          b,
		strategies: make([][]int32, len(b.Workers)),
		costs:      make([][]float64, len(b.Workers)),
		candidates: make([][]int32, len(b.Tasks)),
	}

	// Task diff, applied to the cache state in place: departed tasks leave
	// c.pending and the grid, arrivals enter both and form the probe set
	// for unmoved workers. After the diff c.pending equals the current
	// batch's pending set, so absorb needs no re-keying.
	departed := 0
	gridOps := 0
	for slot, id := range c.slotTask {
		if id < 0 || b.TaskIndex(id) >= 0 {
			continue
		}
		departed++
		delete(c.pending, id)
		c.slotTask[slot] = -1
		c.freeSlots = append(c.freeSlots, int32(slot))
		if c.grid != nil {
			c.grid.Remove(slot)
			gridOps++
		}
	}
	// Scanning the batch in order leaves arrived ascending.
	arrived := c.arrived[:0]
	for ti, t := range b.Tasks {
		if !c.pending[t.ID] {
			arrived = append(arrived, int32(ti))
			c.addPending(t)
			if c.grid != nil {
				gridOps++
			}
		}
	}
	c.arrived = arrived
	c.stats.TasksDeparted += departed
	c.stats.TasksArrived += len(arrived)
	b.rec.AddCacheTasksDeparted(int64(departed))
	b.rec.AddCacheTasksArrived(int64(len(arrived)))
	b.rec.AddGridOps(int64(gridOps))

	// Skill buckets: over the arrivals for the revalidation probes, over the
	// whole batch for worker rebuilds.
	newBySkill := make(map[model.Skill][]int32)
	for _, ti := range arrived {
		t := b.Tasks[ti]
		newBySkill[t.Requires] = append(newBySkill[t.Requires], ti)
	}
	bySkill := make(map[model.Skill][]int32)
	for ti, t := range b.Tasks {
		bySkill[t.Requires] = append(bySkill[t.Requires], int32(ti))
	}
	gridDensity := 0.0
	if c.grid != nil {
		gridDensity = float64(c.grid.Len()) / c.boxArea
	}

	// The per-worker loop. Shared cache state (c.workers, c.pending, the
	// grid, the skill buckets) is read-only until every goroutine is done;
	// each goroutine writes only its own disjoint idx slots and scratch.
	work := func(wi int, sc *cacheScratch) {
		bw := &b.Workers[wi]
		cw := c.workers[bw.W.ID]
		if cw != nil &&
			cw.loc == bw.Loc &&
			cw.distBudget == bw.DistBudget && //lint:epsfloat-ok bit-identity invalidation compare; a tolerance would treat distinct cached states as equal
			bw.ReadyAt >= cw.readyAt && //lint:epsfloat-ok monotone-readiness guard is deliberately exact; DeadlineFeasible applies the epsilon downstream
			cw.start == bw.W.Start && cw.wait == bw.W.Wait && //lint:epsfloat-ok bit-identity invalidation compare; a tolerance would treat distinct cached states as equal
			cw.velocity == bw.W.Velocity && cw.maxDist == bw.W.MaxDist { //lint:epsfloat-ok bit-identity invalidation compare; a tolerance would treat distinct cached states as equal
			c.revalidate(b, wi, cw, newBySkill, idx, &sc.bs)
			sc.reused++
		} else {
			c.rebuildWorker(b, wi, bySkill, gridDensity, idx, &sc.bs)
			sc.rebuilt++
		}
	}

	nw := len(b.Workers)
	if procs > (nw+buildChunk-1)/buildChunk {
		procs = (nw + buildChunk - 1) / buildChunk
	}
	if nw < minParallelWorkers || procs <= 1 {
		var sc cacheScratch
		for wi := 0; wi < nw; wi++ {
			work(wi, &sc)
		}
		c.flush(b, &sc)
	} else {
		scs := make([]cacheScratch, procs)
		var next atomic.Int64
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(sc *cacheScratch) {
				defer wg.Done()
				for {
					lo := int(next.Add(buildChunk)) - buildChunk
					if lo >= nw {
						return
					}
					hi := lo + buildChunk
					if hi > nw {
						hi = nw
					}
					for wi := lo; wi < hi; wi++ {
						work(wi, sc)
					}
				}
			}(&scs[p])
		}
		wg.Wait()
		for p := range scs {
			c.flush(b, &scs[p])
		}
	}

	idx.invertStrategies()
	c.absorbWorkers(b, idx)
	return idx
}

// flush folds one goroutine's outcome counters into the cache stats and the
// batch recorder, and publishes its arena economy.
func (c *EngineCache) flush(b *Batch, sc *cacheScratch) {
	c.stats.WorkersReused += int(sc.reused)
	c.stats.WorkersRebuilt += int(sc.rebuilt)
	b.rec.AddCacheWorkersRevalidated(sc.reused)
	b.rec.AddCacheWorkersRebuilt(sc.rebuilt)
	sc.bs.flushArena(b)
}

// revalidate re-derives an unmoved worker's strategy set: cached entries are
// filtered by pure time arithmetic over the memoized travel times (departed
// tasks drop out via the pending lookup, deadline-expired ones via
// model.DeadlineFeasible), and newly arrived tasks are probed through the
// full predicate — the only distance evaluations on this path.
func (c *EngineCache) revalidate(b *Batch, wi int, cw *cachedWorker, newBySkill map[model.Skill][]int32, idx *BatchIndex, sc *buildScratch) {
	bw := &b.Workers[wi]
	sc.set = sc.set[:0]
	sc.costs = sc.costs[:0]
	reused := 0
	for k, id := range cw.tasks {
		ti := b.TaskIndex(id)
		if ti < 0 {
			continue // task departed
		}
		reused++
		if model.DeadlineFeasible(b.Tasks[ti], bw.ReadyAt, cw.costs[k]) {
			sc.set = append(sc.set, int32(ti))
			sc.costs = append(sc.costs, cw.costs[k])
		}
	}
	examined := 0
	for _, sk := range bw.W.Skills.Skills() {
		for _, ti := range newBySkill[sk] {
			examined++
			t := b.Tasks[ti]
			if model.FeasibleFrom(bw.W, bw.Loc, bw.ReadyAt, bw.DistBudget, t, b.dist) {
				sc.set = append(sc.set, ti)
				sc.costs = append(sc.costs, bw.W.TravelTime(bw.Loc, t.Loc, b.dist))
			}
		}
	}
	// Cached entries follow the previous batch's index order and arrivals
	// interleave arbitrarily; restore ascending task-index order.
	sc.sortStrategy()
	// Every retained cached entry is a cross-batch memo hit (its travel time
	// was served from the memo instead of recomputed); only arrival probes
	// run the exact predicate.
	b.rec.AddMemoHits(int64(reused))
	b.rec.AddExamined(int64(examined))
	b.rec.AddAdmitted(int64(len(sc.set)))
	idx.strategies[wi] = sc.ints.carve(sc.set)
	idx.costs[wi] = sc.floats.carve(sc.costs)
}

// rebuildWorker recomputes a moved (or new) worker's strategy set through
// the same pruned scan as the from-scratch build, with the maintained grid
// standing in for the per-batch one. Grid hits come back as task IDs and are
// mapped to batch indexes through the pending map.
func (c *EngineCache) rebuildWorker(b *Batch, wi int, bySkill map[model.Skill][]int32, gridDensity float64, idx *BatchIndex, sc *buildScratch) {
	bw := &b.Workers[wi]
	sc.set = sc.set[:0]
	sc.costs = sc.costs[:0]
	examined := 0
	appendFeasible := func(ti int32) {
		examined++
		t := b.Tasks[ti]
		if model.FeasibleFrom(bw.W, bw.Loc, bw.ReadyAt, bw.DistBudget, t, b.dist) {
			sc.set = append(sc.set, ti)
			sc.costs = append(sc.costs, bw.W.TravelTime(bw.Loc, t.Loc, b.dist))
		}
	}
	skillPool := 0
	for _, sk := range bw.W.Skills.Skills() {
		skillPool += len(bySkill[sk])
	}
	useGrid := false
	if c.grid != nil {
		r := c.boxScale * (bw.DistBudget + model.DistEps)
		discPool := math.Pi * r * r * gridDensity
		if discPool > float64(len(b.Tasks)) {
			discPool = float64(len(b.Tasks))
		}
		useGrid = discPool < float64(skillPool)
	}
	if useGrid {
		sc.grid = c.grid.Within(bw.Loc, c.boxScale*(bw.DistBudget+model.DistEps), sc.grid[:0])
		for _, slot := range sc.grid {
			ti := b.TaskIndex(c.slotTask[slot])
			if ti < 0 {
				continue
			}
			if bw.W.Skills.Has(b.Tasks[ti].Requires) {
				appendFeasible(int32(ti))
			}
		}
	} else {
		for _, sk := range bw.W.Skills.Skills() {
			for _, ti := range bySkill[sk] {
				appendFeasible(ti)
			}
		}
	}
	sc.sortStrategy()
	b.rec.AddExamined(int64(examined))
	b.rec.AddAdmitted(int64(len(sc.set)))
	idx.strategies[wi] = sc.ints.carve(sc.set)
	idx.costs[wi] = sc.floats.carve(sc.costs)
}

// absorbWorkers snapshots the batch's worker states and strategy sets as the
// baseline for the next incremental build. The map, the cachedWorker
// structs, and their task/cost buffers are all reused across batches:
// present workers are updated in place, new ones come from the free list
// (or a struct slab), and departed ones are swept into the free list. The
// copies are cache-owned — nothing here aliases the index, so later reuse
// cannot mutate an index a previous batch returned.
func (c *EngineCache) absorbWorkers(b *Batch, idx *BatchIndex) {
	if c.workers == nil {
		c.workers = make(map[model.WorkerID]*cachedWorker, len(b.Workers))
	}
	c.gen++
	pooled := 0
	for wi := range b.Workers {
		bw := &b.Workers[wi]
		cw := c.workers[bw.W.ID]
		if cw == nil {
			if n := len(c.free); n > 0 {
				cw = c.free[n-1]
				c.free[n-1] = nil
				c.free = c.free[:n-1]
				pooled++
			} else {
				cw = &c.structs.carveLen(1)[0]
			}
			c.workers[bw.W.ID] = cw
		}
		cw.loc = bw.Loc
		cw.readyAt = bw.ReadyAt
		cw.distBudget = bw.DistBudget
		cw.start, cw.wait = bw.W.Start, bw.W.Wait
		cw.velocity, cw.maxDist = bw.W.Velocity, bw.W.MaxDist
		cw.gen = c.gen

		set := idx.strategies[wi]
		if cap(cw.tasks) >= len(set) {
			cw.tasks = cw.tasks[:len(set)]
		} else {
			cw.tasks = c.ids.carveLen(len(set))
		}
		for k, ti := range set {
			cw.tasks[k] = b.Tasks[ti].ID
		}
		costs := idx.costs[wi]
		if cap(cw.costs) >= len(costs) {
			cw.costs = cw.costs[:len(costs)]
		} else {
			cw.costs = c.floats.carveLen(len(costs))
		}
		copy(cw.costs, costs)
	}
	// Sweep departed workers (entries the loop above did not restamp) into
	// the free list, buffers attached for reuse.
	//lint:deterministic-ok recycled structs are interchangeable containers; every field and buffer is overwritten before reuse, so free-list order never reaches an index
	for id, cw := range c.workers {
		if cw.gen != c.gen {
			delete(c.workers, id)
			c.free = append(c.free, cw)
		}
	}
	c.stats.WorkersPooled += pooled
	b.rec.SetCachePool(pooled, len(c.free))
	c.valid = true
}

// refreshPending rebuilds the pending-task slots, and fills the grid when
// there is one, from scratch (adopt path; the incremental path maintains
// them by diff). The map and slot buffers are reused.
func (c *EngineCache) refreshPending(b *Batch) {
	if c.pending == nil {
		c.pending = make(map[model.TaskID]bool, len(b.Tasks))
	} else {
		clear(c.pending)
	}
	c.slotTask = c.slotTask[:0]
	c.freeSlots = c.freeSlots[:0]
	for _, t := range b.Tasks {
		if !c.pending[t.ID] {
			c.addPending(t)
		}
	}
}

// addPending gives task t a slot, recycling a free one first, and enters
// it in the grid.
func (c *EngineCache) addPending(t *model.Task) {
	var slot int32
	if n := len(c.freeSlots); n > 0 {
		slot = c.freeSlots[n-1]
		c.freeSlots = c.freeSlots[:n-1]
		c.slotTask[slot] = t.ID
	} else {
		slot = int32(len(c.slotTask))
		c.slotTask = append(c.slotTask, t.ID)
	}
	c.pending[t.ID] = true
	if c.grid != nil {
		c.grid.Insert(int(slot), t.Loc)
	}
}
