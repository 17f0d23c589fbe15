package step

import (
	"fmt"
	"math"
	"slices"

	"dasc/internal/core"
	"dasc/internal/geo"
	"dasc/internal/model"
)

// Oracle is the full-scan batch step that Step replaced, kept as the
// reference for the lockstep differentials: every batch rescans every
// registered worker and task and rebuilds the satisfied set from all
// assignments so far. It dispatches in dependency order, as Step does.
type Oracle struct {
	cfg      Config
	alloc    core.Allocator
	cache    *core.EngineCache
	In       *model.Instance
	WS       []WorkerState
	Assigned map[model.TaskID]model.WorkerID
	Botched  map[model.TaskID]bool
	FinishAt map[model.TaskID]float64
	Totals   Totals
}

// NewOracle returns a full-scan step over in, which the caller may append
// to between batches (AddWorkers/AddTasks keep WS in step).
func NewOracle(cfg Config, in *model.Instance) *Oracle {
	o := &Oracle{
		cfg: cfg, alloc: cfg.EngineOptions.Allocator(cfg.Allocator), cache: core.NewEngineCache(),
		In:       &model.Instance{Dist: in.Dist},
		Assigned: map[model.TaskID]model.WorkerID{},
		Botched:  map[model.TaskID]bool{},
		FinishAt: map[model.TaskID]float64{},
	}
	o.AddWorkers(in.Workers...)
	o.AddTasks(in.Tasks...)
	return o
}

func (o *Oracle) AddWorkers(ws ...model.Worker) {
	for _, w := range ws {
		o.In.Workers = append(o.In.Workers, w)
		o.WS = append(o.WS, WorkerState{X: w.Loc.X, Y: w.Loc.Y})
	}
}

func (o *Oracle) AddTasks(ts ...model.Task) { o.In.Tasks = append(o.In.Tasks, ts...) }

// Tick runs one full-scan batch at now.
func (o *Oracle) Tick(now float64) (Outcome, error) {
	in := &model.Instance{Workers: o.In.Workers, Tasks: o.In.Tasks, Dist: o.In.Dist}
	dist := in.Distance()
	var bws []core.BatchWorker
	for i := range in.Workers {
		w := &in.Workers[i]
		if w.Start > now || now > w.Expiry() || o.WS[i].BusyUntil > now {
			continue
		}
		if o.cfg.DisableReuse && o.WS[i].Done > 0 {
			continue
		}
		bws = append(bws, core.BatchWorker{
			W: w, Loc: geo.Pt(o.WS[i].X, o.WS[i].Y), ReadyAt: now, DistBudget: w.MaxDist - o.WS[i].DistUsed,
		})
	}
	var pending []*model.Task
	for i := range in.Tasks {
		t := &in.Tasks[i]
		if _, ok := o.Assigned[t.ID]; ok {
			continue
		}
		if o.Botched[t.ID] || t.Start > now || t.Deadline() < now {
			continue
		}
		pending = append(pending, t)
	}
	out := Outcome{Workers: len(bws), Tasks: len(pending)}
	if len(bws) == 0 || len(pending) == 0 {
		return out, nil
	}
	satisfied := make(map[model.TaskID]bool, len(o.Assigned))
	for id := range o.Assigned {
		satisfied[id] = true
	}
	b := core.NewBatch(in, bws, pending, satisfied)
	if !o.cfg.DisableEngineCache {
		o.cache.Attach(b)
		if o.cfg.VerifyEngineCache {
			if err := b.VerifyIndex(); err != nil {
				return out, fmt.Errorf("engine cache diverged: %w", err)
			}
		}
	}
	if g, ok := o.alloc.(*core.Game); ok && o.cfg.VerifyGameWorklist {
		if err := g.VerifyWorklist(b); err != nil {
			return out, fmt.Errorf("game worklist diverged: %w", err)
		}
	}
	raw := o.alloc.Assign(b)
	out.Rogue = core.DropUnknownWorkers(b, raw)
	valid := core.DependencyFixpoint(b, raw)
	out.Raw, out.Valid = raw, valid
	o.Totals.Assigned += valid.Size()
	o.Totals.Weight += valid.WeightSum(in)
	o.Totals.Wasted += raw.Size() - valid.Size()
	validSet := valid.TaskSet()
	for _, pair := range dependencyOrderMap(in, raw) {
		bi := b.WorkerIndex(pair.Worker)
		if bi < 0 {
			out.Rogue++
			continue
		}
		i := int(pair.Worker)
		w, t := &in.Workers[i], &in.Tasks[pair.Task]
		from := geo.Pt(o.WS[i].X, o.WS[i].Y)
		d := dist(from, t.Loc)
		arrive := math.Max(now, t.Start) + w.TravelTime(from, t.Loc, dist)
		serviceStart := arrive
		for _, dep := range t.Deps {
			if fa, ok := o.FinishAt[dep]; ok && fa > serviceStart {
				serviceStart = fa
			}
		}
		finish := serviceStart + o.cfg.ServiceTime
		o.WS[i] = WorkerState{X: t.Loc.X, Y: t.Loc.Y, DistUsed: o.WS[i].DistUsed + d, BusyUntil: finish, Done: o.WS[i].Done + 1}
		o.Totals.Travel += d
		o.Totals.BusyTime += finish - now
		if validSet[pair.Task] {
			o.Assigned[pair.Task] = pair.Worker
			o.FinishAt[pair.Task] = finish
			o.Totals.Completed++
			o.Totals.DelaySum += serviceStart - t.Start
			o.Totals.DelayCount++
			if o.cfg.CollectDelays {
				o.Totals.Delays = append(o.Totals.Delays, serviceStart-t.Start)
			}
		} else {
			o.Botched[pair.Task] = true
		}
	}
	o.Totals.Rogue += out.Rogue
	return out, nil
}

// dependencyOrderMap is the map-based dependencyOrder that the step's
// dense version replaced, kept as the oracle's own reference.
func dependencyOrderMap(in *model.Instance, m *model.Assignment) []model.Pair {
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

// SortedAssigned returns the oracle's valid pairs sorted by task: the
// server's assignment view rebuilt from the map.
func (o *Oracle) SortedAssigned() []model.Pair {
	var pairs []model.Pair
	for tid, wid := range o.Assigned {
		pairs = append(pairs, model.Pair{Worker: wid, Task: tid})
	}
	a := &model.Assignment{Pairs: pairs}
	a.Sort()
	return a.Pairs
}

// Diff reports the first difference between the step's bookkeeping and
// the oracle's, or nil.
func (s *Step) Diff(o *Oracle) error {
	if !slices.Equal(s.ws, o.WS) {
		return fmt.Errorf("worker states differ")
	}
	if got, want := s.Assignments().Pairs, o.SortedAssigned(); !slices.Equal(got, want) {
		return fmt.Errorf("assignments differ:\nstep   %v\noracle %v", got, want)
	}
	for i := range s.in.Tasks {
		id := model.TaskID(i)
		if s.botched.Has(id) != o.Botched[id] {
			return fmt.Errorf("task t%d botched: step %v, oracle %v", id, s.botched.Has(id), o.Botched[id])
		}
		fa, ok := o.FinishAt[id]
		if s.lk.Satisfied.Has(id) != ok {
			return fmt.Errorf("task t%d satisfied: step %v, oracle %v", id, s.lk.Satisfied.Has(id), ok)
		}
		if ok && math.Float64bits(s.finishAt[id]) != math.Float64bits(fa) {
			return fmt.Errorf("finishAt[t%d] = %v, oracle %v", id, s.finishAt[id], fa)
		}
	}
	if s.nBotched != len(o.Botched) || s.assigned != len(o.Assigned) {
		return fmt.Errorf("botched/assigned counts %d/%d, oracle %d/%d",
			s.nBotched, s.assigned, len(o.Botched), len(o.Assigned))
	}
	if !totalsEqual(s.totals, o.Totals) {
		return fmt.Errorf("totals %+v, oracle %+v", s.totals, o.Totals)
	}
	return nil
}

func totalsEqual(a, b Totals) bool {
	bits := math.Float64bits
	return a.Assigned == b.Assigned && bits(a.Weight) == bits(b.Weight) && a.Wasted == b.Wasted &&
		a.Rogue == b.Rogue && a.Completed == b.Completed && bits(a.Travel) == bits(b.Travel) &&
		bits(a.BusyTime) == bits(b.BusyTime) && bits(a.DelaySum) == bits(b.DelaySum) &&
		a.DelayCount == b.DelayCount && slices.Equal(a.Delays, b.Delays)
}

// CheckLive verifies the live-set invariants by brute force: the live lists
// ascend and hold exactly the entities live at s.now, the waiting lists
// exactly those not started, and nothing else is in either.
func (s *Step) CheckLive() error {
	var want [2]population
	for i := range s.in.Workers {
		want[0].place(int32(i), s.in.Workers[i].Start, s.now, s.workerRetired(int32(i)))
	}
	for i := range s.in.Tasks {
		want[1].place(int32(i), s.in.Tasks[i].Start, s.now, s.taskRetired(int32(i)))
	}
	if err := s.workers.same(&want[0]); err != nil {
		return fmt.Errorf("workers: %v", err)
	}
	if err := s.tasks.same(&want[1]); err != nil {
		return fmt.Errorf("tasks: %v", err)
	}
	return nil
}

// SameLive reports whether two steps hold the same live and waiting sets.
func (s *Step) SameLive(o *Step) error {
	if err := s.workers.same(&o.workers); err != nil {
		return fmt.Errorf("workers: %v", err)
	}
	if err := s.tasks.same(&o.tasks); err != nil {
		return fmt.Errorf("tasks: %v", err)
	}
	return nil
}

func (p *population) same(o *population) error {
	if !slices.Equal(p.live, o.live) {
		return fmt.Errorf("live %v vs %v", p.live, o.live)
	}
	if a, b := p.waiting(), o.waiting(); !slices.Equal(a, b) {
		return fmt.Errorf("waiting %v vs %v", a, b)
	}
	return nil
}

// waiting returns the waiting IDs, ascending.
func (p *population) waiting() []int32 {
	var out []int32
	for _, a := range p.wait {
		out = append(out, a.id)
	}
	slices.Sort(out)
	return out
}
