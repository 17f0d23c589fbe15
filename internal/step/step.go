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

// Totals accumulates what every batch so far did.
type Totals struct {
	Assigned   int     // valid pairs
	Weight     float64 // Σ weight over valid pairs
	Wasted     int     // executed pairs dropped by the dependency fixpoint
	Rogue      int     // allocator pairs naming a worker outside the batch
	Completed  int     // valid pairs dispatched
	Travel     float64 // distance covered by all dispatches
	BusyTime   float64 // Σ (finish − batch time) over dispatches
	DelaySum   float64 // Σ (service start − task start) over completed tasks
	DelayCount int
	Delays     []float64 // per completed task, with Config.CollectDelays
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

	ws        []WorkerState
	satisfied map[model.TaskID]bool // validly assigned; every batch's Satisfied
	botched   map[model.TaskID]bool // consumed by an invalid dispatch
	finishAt  map[model.TaskID]float64
	commits   []model.Pair // valid pairs in dispatch order; append-only

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
func (s *Step) Assigned() int { return len(s.satisfied) }

// Expired returns how many tasks were neither assigned nor consumed.
func (s *Step) Expired() int { return len(s.in.Tasks) - len(s.satisfied) - len(s.botched) }

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
	for _, t := range ts {
		s.in.Tasks = append(s.in.Tasks, t)
		s.tasks.place(int32(t.ID), t.Start, s.now, s.taskRetired(int32(t.ID)))
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
	return s.satisfied[id] || s.botched[id] || s.in.Tasks[i].Deadline() < s.now
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
	// Core only reads Satisfied, so the persistent set goes in by reference.
	b := core.NewBatch(&s.in, bws, tasks, s.satisfied)
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
	for _, pair := range dependencyOrder(&s.in, raw) {
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
			if fa, ok := s.finishAt[dep]; ok && fa > serviceStart {
				serviceStart = fa
			}
		}
		finish := serviceStart + s.cfg.ServiceTime
		*st = WorkerState{X: t.Loc.X, Y: t.Loc.Y, DistUsed: st.DistUsed + d, BusyUntil: finish, Done: st.Done + 1}
		s.totals.Travel += d
		s.totals.BusyTime += finish - now
		if !validTask[pair.Task] {
			s.botched[pair.Task] = true
			continue
		}
		s.satisfied[pair.Task] = true
		s.finishAt[pair.Task] = finish
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

// dependencyOrder returns the assignment's pairs ordered so that every task
// appears after its in-assignment dependencies, enabling single-pass finish
// time computation. The assignment's dependency consistency guarantees the
// order exists.
func dependencyOrder(in *model.Instance, m *model.Assignment) []model.Pair {
	byTask := make(map[model.TaskID]model.Pair, len(m.Pairs))
	for _, p := range m.Pairs {
		byTask[p.Task] = p
	}
	visited := make(map[model.TaskID]bool, len(m.Pairs))
	out := make([]model.Pair, 0, len(m.Pairs))
	var visit func(id model.TaskID)
	visit = func(id model.TaskID) {
		if visited[id] {
			return
		}
		visited[id] = true
		for _, dep := range in.Task(id).Deps {
			if _, ok := byTask[dep]; ok {
				visit(dep)
			}
		}
		out = append(out, byTask[id])
	}
	for _, p := range m.Pairs {
		visit(p.Task)
	}
	return out
}

// Saved is a step's durable state: everything but the configuration. Its
// JSON form is the bookkeeping part of a server snapshot; the registries
// and the metric travel beside it.
type Saved struct {
	Now      float64        `json:"now"`
	Wasted   int            `json:"wasted"`
	Rogue    int            `json:"rogue"`
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
		Wasted:  s.totals.Wasted, Rogue: s.totals.Rogue,
	}
	for _, p := range s.Assignments().Pairs {
		sv.Assigned = append(sv.Assigned, Commit{Task: p.Task, Worker: p.Worker, FinishAt: s.finishAt[p.Task]})
	}
	for id := range s.botched {
		sv.Botched = append(sv.Botched, id)
	}
	slices.Sort(sv.Botched)
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
		ws:        sv.State,
		satisfied: make(map[model.TaskID]bool, len(sv.Assigned)),
		botched:   make(map[model.TaskID]bool, len(sv.Botched)),
		finishAt:  make(map[model.TaskID]float64, len(sv.Assigned)),
		totals:    Totals{Wasted: sv.Wasted, Rogue: sv.Rogue},
	}
	s.dist = s.in.Distance()
	for _, c := range sv.Assigned {
		s.satisfied[c.Task] = true
		s.finishAt[c.Task] = c.FinishAt
		s.commits = append(s.commits, model.Pair{Worker: c.Worker, Task: c.Task})
	}
	for _, id := range sv.Botched {
		s.botched[id] = true
	}
	for i := range s.in.Workers {
		s.workers.place(int32(i), s.in.Workers[i].Start, s.now, s.workerRetired(int32(i)))
	}
	for i := range s.in.Tasks {
		s.tasks.place(int32(i), s.in.Tasks[i].Start, s.now, s.taskRetired(int32(i)))
	}
}
