// Package step is the batch process (the paper's Section II-D) that both
// platforms drive: the simulator on its batch grid (sim.Platform.Run) and
// the server on every tick (server.Platform.TickTagged). A Step owns the
// registries, the workers' dispatch state and the assignment bookkeeping,
// and keeps the live population incrementally, so a batch costs
// O(live + arrivals + pairs) however much retired history it holds.
// DESIGN.md §3.13 describes the lifecycle.
package step

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"dasc/internal/core"
	"dasc/internal/geo"
	"dasc/internal/model"
	"dasc/internal/obs"
)

// Config parameterises a Step.
type Config struct {
	// Allocator decides each batch's assignment. Required.
	Allocator core.Allocator
	EngineOptions
	// ServiceTime is the on-site duration per task.
	ServiceTime float64
	// DisableReuse retires a worker after its first dispatch.
	DisableReuse bool
	// CollectDelays records every completed task's start delay in
	// Totals.Delays.
	CollectDelays bool
}

// WorkerState is a worker's mutable dispatch state.
type WorkerState struct {
	X         float64 `json:"x"`
	Y         float64 `json:"y"`
	BusyUntil float64 `json:"busy_until"`
	DistUsed  float64 `json:"dist_used"`
	Done      int     `json:"done"` // dispatches, valid or not
}

// Commit is a valid pair with its task's finish time.
type Commit struct {
	Task     model.TaskID   `json:"task"`
	Worker   model.WorkerID `json:"worker"`
	FinishAt float64        `json:"finish_at"`
}

// Totals accumulates what every batch so far did. Everything but Delays
// is durable: it travels in Saved.
type Totals struct {
	Assigned   int       `json:"assigned_pairs"` // valid pairs
	Weight     float64   `json:"weight"`         // Σ weight over valid pairs
	Wasted     int       `json:"wasted"`         // executed pairs dropped by the dependency fixpoint
	Rogue      int       `json:"rogue"`          // allocator pairs naming a worker outside the batch
	Completed  int       `json:"completed"`      // valid pairs dispatched
	Travel     float64   `json:"travel"`         // distance covered by all dispatches
	BusyTime   float64   `json:"busy_time"`      // Σ (finish − batch time) over dispatches
	DelaySum   float64   `json:"delay_sum"`      // Σ (service start − task start) over completed tasks
	DelayCount int       `json:"delay_count"`
	Delays     []float64 `json:"-"` // per completed task, with Config.CollectDelays
}

// Outcome is what one batch did.
type Outcome struct {
	Workers int // idle live workers presented to the allocator
	Tasks   int // pending tasks presented to the allocator
	// Raw is the allocator's assignment minus rogue pairs, Valid its
	// dependency-consistent subset. Both are nil when the batch was empty.
	Raw, Valid *model.Assignment
	Rogue      int
}

// Step is the shared batch process over incrementally kept live state. It
// is not safe for concurrent use; the server calls it under its mutex.
type Step struct {
	cfg   Config
	alloc core.Allocator
	cache *core.EngineCache
	in    model.Instance
	dist  geo.DistanceFunc
	now   float64

	ws []WorkerState
	// lk holds the task-ID-indexed state every batch reads: its Satisfied
	// set is the validly assigned tasks. The per-task slices below are
	// indexed by task ID too, and all of them grow at registration, so a
	// tick never allocates or clears anything sized by the history.
	lk       core.TaskLookups
	botched  model.TaskBits // consumed by an invalid dispatch
	finishAt []float64      // finish time of a satisfied task
	order    []int32        // dependencyOrder's scratch
	assigned int            // tasks in lk.Satisfied
	nBotched int            // tasks in botched
	commits  []model.Pair   // valid pairs in dispatch order; append-only

	workers, tasks population
	totals         Totals
}

// population is one entity kind's live set: the live IDs, ascending, and
// the entities registered with a future start, waiting to arrive.
type population struct {
	live   []int32
	wait   []arrival
	sorted bool // wait is in start order
}

type arrival struct {
	start float64
	id    int32
}

// place files entity id as waiting, live or (neither) retired at now.
// Callers place in ascending ID order.
func (p *population) place(id int32, start, now float64, retired bool) {
	switch {
	case start > now:
		p.wait = append(p.wait, arrival{start, id})
		p.sorted = false
	case !retired:
		p.live = append(p.live, id)
	}
}

// advance moves the entities started by now into the live list, keeping it
// ascending, and drops every retired entity from it.
func (p *population) advance(now float64, retired func(int32) bool) {
	if !p.sorted {
		slices.SortFunc(p.wait, func(a, b arrival) int { return cmp.Compare(a.start, b.start) })
		p.sorted = true
	}
	n := 0
	for ; n < len(p.wait) && !(p.wait[n].start > now); n++ {
		p.live = append(p.live, p.wait[n].id)
	}
	if n > 0 {
		p.wait = p.wait[n:]
		slices.Sort(p.live)
	}
	p.compact(retired)
}

func (p *population) compact(retired func(int32) bool) {
	p.live = slices.DeleteFunc(p.live, retired)
}

// New returns a step over the registries of in at logical time now,
// placing in's entities as if registered at now. The step aliases in's
// slices (capacity-capped, so later registrations reallocate rather than
// write into the caller's arrays) and never rewrites an element.
func New(cfg Config, in *model.Instance, now float64) *Step {
	s := &Step{cfg: cfg, alloc: cfg.EngineOptions.Allocator(cfg.Allocator)}
	ws := make([]WorkerState, len(in.Workers))
	for i, w := range in.Workers {
		ws[i].X, ws[i].Y = w.Loc.X, w.Loc.Y
	}
	s.Restore(Saved{Now: now, Dist: in.Dist, Workers: in.Workers, Tasks: in.Tasks, State: ws})
	return s
}

// Allocator returns the allocator the step runs, engine options applied.
func (s *Step) Allocator() core.Allocator { return s.alloc }

// Now returns the time of the last batch (or of construction).
func (s *Step) Now() float64 { return s.now }

// Instance returns the step's registries. The slices are append-only and
// their elements are never rewritten, so callers may alias them.
func (s *Step) Instance() *model.Instance { return &s.in }

// Worker returns worker i's dispatch state.
func (s *Step) Worker(i int) WorkerState { return s.ws[i] }

// Totals returns the accumulated batch results.
func (s *Step) Totals() Totals { return s.totals }

// Assigned returns how many tasks have been validly assigned.
func (s *Step) Assigned() int { return s.assigned }

// Expired returns how many tasks were neither assigned nor consumed.
func (s *Step) Expired() int { return len(s.in.Tasks) - s.assigned - s.nBotched }

// Commits returns every valid pair in dispatch order. The slice is
// append-only: a caller may alias a length-capped prefix of it.
func (s *Step) Commits() []model.Pair { return s.commits }

// Assignments returns a copy of every valid pair, sorted by task ID.
func (s *Step) Assignments() *model.Assignment {
	a := &model.Assignment{Pairs: slices.Clone(s.commits)}
	a.Sort()
	return a
}

// Population returns the live and retired worker and task counts in O(1).
// Entities waiting for a future start are neither.
func (s *Step) Population() (liveW, liveT, retiredW, retiredT int) {
	w, t := &s.workers, &s.tasks
	return len(w.live), len(t.live), len(s.in.Workers) - len(w.live) - len(w.wait), len(s.in.Tasks) - len(t.live) - len(t.wait)
}

// AddWorkers registers workers whose IDs continue the registry.
func (s *Step) AddWorkers(ws ...model.Worker) {
	for _, w := range ws {
		s.in.Workers = append(s.in.Workers, w)
		s.ws = append(s.ws, WorkerState{X: w.Loc.X, Y: w.Loc.Y})
		s.workers.place(int32(w.ID), w.Start, s.now, s.workerRetired(int32(w.ID)))
	}
}

// AddTasks registers tasks whose IDs continue the registry.
func (s *Step) AddTasks(ts ...model.Task) {
	s.in.Tasks = append(s.in.Tasks, ts...)
	s.growTasks()
	for _, t := range ts {
		s.tasks.place(int32(t.ID), t.Start, s.now, s.taskRetired(int32(t.ID)))
	}
}

// growTasks sizes every task-ID-indexed slice to the registry, amortised
// over registrations like append.
func (s *Step) growTasks() {
	n := len(s.in.Tasks)
	s.lk.Grow(n)
	s.botched.Grow(n)
	if n > len(s.finishAt) {
		s.finishAt = slices.Grow(s.finishAt, n-len(s.finishAt))[:n]
		s.order = slices.Grow(s.order, n-len(s.order))[:n]
	}
}

// workerRetired reports a worker past its window or, without reuse,
// already dispatched. Both are permanent: time never runs backwards.
func (s *Step) workerRetired(i int32) bool {
	return s.now > s.in.Workers[i].Expiry() || (s.cfg.DisableReuse && s.ws[i].Done > 0)
}

// taskRetired reports a task consumed by a dispatch or past its deadline.
func (s *Step) taskRetired(i int32) bool {
	id := model.TaskID(i)
	return s.lk.Satisfied.Has(id) || s.botched.Has(id) || s.in.Tasks[i].Deadline() < s.now
}

// Tick runs one batch at logical time now, which must not precede the
// previous batch. rec, when non-nil, receives the batch's trace including
// wall-clock phase timings; a nil rec reads no clock.
func (s *Step) Tick(now float64, rec *obs.BatchRec) (Outcome, error) {
	var start, lap time.Time
	var collectD time.Duration
	phase := func() (d time.Duration) {
		if rec != nil {
			prev := lap
			lap = time.Now()
			d = lap.Sub(prev)
		}
		return d
	}
	if rec != nil {
		start = time.Now()
		lap = start
		defer func() {
			rec.SetLive(s.Population())
			rec.ObserveTick(collectD, time.Since(start))
		}()
	}

	s.now = now
	s.workers.advance(now, s.workerRetired)
	s.tasks.advance(now, s.taskRetired)
	var bws []core.BatchWorker
	for _, i := range s.workers.live {
		if st, w := &s.ws[i], &s.in.Workers[i]; !(st.BusyUntil > now) {
			bws = append(bws, core.BatchWorker{W: w, Loc: geo.Pt(st.X, st.Y), ReadyAt: now, DistBudget: w.MaxDist - st.DistUsed})
		}
	}
	tasks := make([]*model.Task, len(s.tasks.live))
	for k, i := range s.tasks.live {
		tasks[k] = &s.in.Tasks[i]
	}
	out := Outcome{Workers: len(bws), Tasks: len(tasks)}
	rec.SetPopulation(out.Workers, out.Tasks)
	if len(bws) == 0 || len(tasks) == 0 {
		collectD = phase()
		return out, nil
	}
	// The batch reads the step's persistent lookups in place: core only
	// reads Satisfied, and the positions it needs are the live tasks' only.
	b := core.NewLiveBatch(&s.in, bws, tasks, &s.lk)
	b.SetRecorder(rec)
	collectD = phase()

	if !s.cfg.DisableEngineCache {
		s.cache.Attach(b)
		if s.cfg.VerifyEngineCache {
			if err := b.VerifyIndex(); err != nil {
				return out, fmt.Errorf("engine cache diverged: %w", err)
			}
		}
	} else if rec != nil {
		// Force the lazy build inside the timed window so the index phase
		// is attributed correctly (the build is idempotent).
		b.Index()
	}
	indexD := phase()

	if g, ok := s.alloc.(*core.Game); ok && s.cfg.VerifyGameWorklist {
		if err := g.VerifyWorklist(b); err != nil {
			return out, fmt.Errorf("game worklist diverged: %w", err)
		}
	}
	raw := s.alloc.Assign(b)
	out.Rogue = core.DropUnknownWorkers(b, raw)
	// Allocators may return raw assignments (the paper's Closest and Random
	// baselines ignore dependencies); only the valid subset scores and
	// satisfies dependency obligations. Invalid pairs still execute — the
	// worker travels and the task is consumed — they are simply wasted,
	// exactly the penalty the paper charges the oblivious baselines.
	valid := core.DependencyFixpoint(b, raw)
	out.Raw, out.Valid = raw, valid
	s.totals.Assigned += valid.Size()
	s.totals.Weight += valid.WeightSum(&s.in)
	s.totals.Wasted += raw.Size() - valid.Size()
	allocD := phase()

	out.Rogue += s.dispatch(b, raw, valid)
	s.totals.Rogue += out.Rogue
	// Consumed tasks (and, without reuse, dispatched workers) retire now,
	// so the live lists never hold a retired entity between batches.
	s.tasks.compact(s.taskRetired)
	s.workers.compact(s.workerRetired)
	rec.SetOutcome(valid.Size(), raw.Size()-valid.Size(), out.Rogue)
	rec.ObservePhases(indexD, allocD, phase())
	return out, nil
}

// dispatch executes raw in dependency order — every task after its
// co-assigned dependencies, so their finish times are known when its
// service start is computed; the Allocator interface promises no pair
// order — and commits the valid pairs. It returns how many pairs it could
// not dispatch.
func (s *Step) dispatch(b *core.Batch, raw, valid *model.Assignment) (rogue int) {
	now := s.now
	validTask := valid.TaskSet()
	for _, pair := range dependencyOrder(&s.in, raw, s.order) {
		// DropUnknownWorkers already removed pairs naming workers outside
		// the batch; the guard stays as a backstop so a miss can never
		// dispatch through batch index 0.
		bi := b.WorkerIndex(pair.Worker)
		if bi < 0 {
			rogue++
			continue
		}
		w, t := b.Workers[bi].W, &s.in.Tasks[pair.Task]
		st := &s.ws[w.ID]
		from := geo.Pt(st.X, st.Y)
		d := s.dist(from, t.Loc)
		serviceStart := math.Max(now, t.Start) + w.TravelTime(from, t.Loc, s.dist)
		for _, dep := range t.Deps {
			if s.lk.Satisfied.Has(dep) && s.finishAt[dep] > serviceStart {
				serviceStart = s.finishAt[dep]
			}
		}
		finish := serviceStart + s.cfg.ServiceTime
		*st = WorkerState{X: t.Loc.X, Y: t.Loc.Y, DistUsed: st.DistUsed + d, BusyUntil: finish, Done: st.Done + 1}
		s.totals.Travel += d
		s.totals.BusyTime += finish - now
		if !validTask[pair.Task] {
			s.botch(pair.Task)
			continue
		}
		s.satisfy(pair.Task, finish)
		s.commits = append(s.commits, pair)
		delay := serviceStart - t.Start
		s.totals.Completed++
		s.totals.DelaySum += delay
		s.totals.DelayCount++
		if s.cfg.CollectDelays {
			s.totals.Delays = append(s.totals.Delays, delay)
		}
	}
	return rogue
}

// satisfy records a valid commit of task id finishing at finish.
func (s *Step) satisfy(id model.TaskID, finish float64) {
	if !s.lk.Satisfied.Has(id) {
		s.lk.Satisfied.Add(id)
		s.assigned++
	}
	s.finishAt[id] = finish
}

// botch records task id as consumed by an invalid dispatch.
func (s *Step) botch(id model.TaskID) {
	if !s.botched.Has(id) {
		s.botched.Add(id)
		s.nBotched++
	}
}

// dependencyOrder returns the assignment's pairs ordered so that every task
// appears after its in-assignment dependencies, enabling single-pass finish
// time computation. The assignment's dependency consistency guarantees the
// order exists. A task named by several pairs appears once, with its last
// pair.
//
// slot is task-ID-indexed scratch covering every task m and its tasks'
// dependencies name; only m's tasks' entries are written. An entry is
// current only when it points back at a pair naming its task, so entries
// left by earlier calls need no clearing.
func dependencyOrder(in *model.Instance, m *model.Assignment, slot []int32) []model.Pair {
	for k, p := range m.Pairs {
		slot[p.Task] = int32(k)
	}
	pairOf := func(id model.TaskID) int {
		if k := int(slot[id]); k < len(m.Pairs) && m.Pairs[k].Task == id {
			return k
		}
		return -1
	}
	visited := make([]bool, len(m.Pairs)) // by a task's last pair
	out := make([]model.Pair, 0, len(m.Pairs))
	var visit func(k int)
	visit = func(k int) {
		if visited[k] {
			return
		}
		visited[k] = true
		for _, dep := range in.Task(m.Pairs[k].Task).Deps {
			if d := pairOf(dep); d >= 0 {
				visit(d)
			}
		}
		out = append(out, m.Pairs[k])
	}
	for _, p := range m.Pairs {
		visit(pairOf(p.Task))
	}
	return out
}

// Saved is a step's durable state: everything but the configuration. Its
// JSON form is the bookkeeping part of a server snapshot; the registries
// and the metric travel beside it. A snapshot written before the totals
// other than wasted and rogue were saved loads with them zero.
type Saved struct {
	Now float64 `json:"now"`
	Totals
	Assigned []Commit       `json:"assigned"`          // ascending by task
	Botched  []model.TaskID `json:"botched,omitempty"` // ascending
	State    []WorkerState  `json:"worker_state"`      // per worker

	Dist    geo.DistanceFunc `json:"-"`
	Workers []model.Worker   `json:"-"`
	Tasks   []model.Task     `json:"-"`
}

// Save returns the step's durable state. The registries are aliased.
func (s *Step) Save() Saved {
	sv := Saved{
		Now: s.now, Dist: s.in.Dist, State: slices.Clone(s.ws),
		Workers: s.in.Workers[:len(s.in.Workers):len(s.in.Workers)],
		Tasks:   s.in.Tasks[:len(s.in.Tasks):len(s.in.Tasks)],
		Totals:  s.totals,
	}
	sv.Delays = nil
	for _, p := range s.Assignments().Pairs {
		sv.Assigned = append(sv.Assigned, Commit{Task: p.Task, Worker: p.Worker, FinishAt: s.finishAt[p.Task]})
	}
	for id := range s.in.Tasks {
		if s.botched.Has(model.TaskID(id)) {
			sv.Botched = append(sv.Botched, model.TaskID(id))
		}
	}
	return sv
}

// Restore replaces the step's state with sv (ranges already validated; the
// step takes sv.State over) and rebuilds the live sets with one full scan. Placement is a pure function
// of the registries, the bookkeeping and the clock, so the result equals
// the state the incremental path reached.
func (s *Step) Restore(sv Saved) {
	*s = Step{
		cfg: s.cfg, alloc: s.alloc, cache: core.NewEngineCache(), now: sv.Now,
		in: model.Instance{
			Dist:    sv.Dist,
			Workers: sv.Workers[:len(sv.Workers):len(sv.Workers)],
			Tasks:   sv.Tasks[:len(sv.Tasks):len(sv.Tasks)],
		},
		ws:     sv.State,
		totals: sv.Totals,
	}
	s.dist = s.in.Distance()
	s.growTasks()
	for _, c := range sv.Assigned {
		s.satisfy(c.Task, c.FinishAt)
		s.commits = append(s.commits, model.Pair{Worker: c.Worker, Task: c.Task})
	}
	for _, id := range sv.Botched {
		s.botch(id)
	}
	for i := range s.in.Workers {
		s.workers.place(int32(i), s.in.Workers[i].Start, s.now, s.workerRetired(int32(i)))
	}
	for i := range s.in.Tasks {
		s.tasks.place(int32(i), s.in.Tasks[i].Start, s.now, s.taskRetired(int32(i)))
	}
}
