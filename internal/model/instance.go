package model

import (
	"fmt"

	"dasc/internal/dag"
	"dasc/internal/geo"
)

// Instance bundles the worker set W and task set T of one DA-SC problem,
// together with the distance function the platform uses. It is the unit the
// generators produce, the dataset codec serialises and the allocators and
// simulator consume.
type Instance struct {
	Workers []Worker
	Tasks   []Task
	// Dist is the travel metric; nil means geo.Euclidean, the paper's
	// default.
	Dist geo.DistanceFunc
	// SkillUniverse is r = |Ψ|, informational only.
	SkillUniverse int
}

// Distance returns the configured metric, defaulting to Euclidean.
func (in *Instance) Distance() geo.DistanceFunc {
	if in.Dist == nil {
		return geo.Euclidean
	}
	return in.Dist
}

// Worker returns the worker with the given ID, or nil when out of range.
func (in *Instance) Worker(id WorkerID) *Worker {
	if id < 0 || int(id) >= len(in.Workers) {
		return nil
	}
	return &in.Workers[id]
}

// Task returns the task with the given ID, or nil when out of range.
func (in *Instance) Task(id TaskID) *Task {
	if id < 0 || int(id) >= len(in.Tasks) {
		return nil
	}
	return &in.Tasks[id]
}

// DepGraph builds the dependency DAG over the instance's tasks.
func (in *Instance) DepGraph() (*dag.Graph, error) {
	g := dag.New(len(in.Tasks))
	for i := range in.Tasks {
		t := &in.Tasks[i]
		for _, d := range t.Deps {
			if in.Task(d) == nil {
				return nil, fmt.Errorf("model: task t%d depends on unknown task t%d", t.ID, d)
			}
			if err := g.AddDep(int(t.ID), int(d)); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Validate checks structural sanity: consistent IDs, non-negative temporal
// and spatial parameters, known, distinct and non-self dependency targets,
// and acyclic dependencies. It does not check that dependency lists are
// transitively closed; the dataset loader closes them, the generators build
// them closed. Generators and the dataset loader call it before handing an
// instance to the allocators.
//
// It runs in O(workers + tasks + dependency entries): duplicates are found
// with one generation-stamped slice and acyclicity with an iterative DFS
// over the lists themselves. Only a cyclic instance pays for a dag.Graph,
// whose FindCycle names the cycle in the error.
func (in *Instance) Validate() error {
	for i := range in.Workers {
		w := &in.Workers[i]
		if int(w.ID) != i {
			return fmt.Errorf("model: worker at index %d has ID %d", i, w.ID)
		}
		if w.Wait < 0 || w.Velocity < 0 || w.MaxDist < 0 {
			return fmt.Errorf("model: worker w%d has negative parameter", w.ID)
		}
		if w.Skills.IsEmpty() {
			return fmt.Errorf("model: worker w%d has no skills", w.ID)
		}
	}
	// seen[d] == i+1 marks d as already listed by task i; the stamp changes
	// with the task, so the slice is never cleared.
	seen := make([]int32, len(in.Tasks))
	for i := range in.Tasks {
		t := &in.Tasks[i]
		if int(t.ID) != i {
			return fmt.Errorf("model: task at index %d has ID %d", i, t.ID)
		}
		if t.Wait < 0 {
			return fmt.Errorf("model: task t%d has negative waiting time", t.ID)
		}
		if t.Requires < 0 {
			return fmt.Errorf("model: task t%d has negative required skill", t.ID)
		}
		stamp := int32(i + 1)
		for _, d := range t.Deps {
			if in.Task(d) == nil {
				return fmt.Errorf("model: task t%d depends on unknown task t%d", t.ID, d)
			}
			if d == t.ID {
				return fmt.Errorf("model: task t%d depends on itself", t.ID)
			}
			if seen[d] == stamp {
				return fmt.Errorf("model: task t%d lists dependency t%d twice", t.ID, d)
			}
			seen[d] = stamp
		}
	}
	if in.depsAcyclic() {
		return nil
	}
	g, err := in.DepGraph()
	if err != nil {
		return err
	}
	return fmt.Errorf("model: dependency cycle %v: %w", g.FindCycle(), dag.ErrCycle)
}

// depsAcyclic reports whether the dependency lists, already checked to name
// known tasks, form no cycle: an iterative three-colour DFS straight over
// Tasks[i].Deps, one frame per task on the path.
func (in *Instance) depsAcyclic() bool {
	const (
		white = iota // unvisited
		grey         // on the DFS path
		black        // finished
	)
	type frame struct{ task, next int32 }
	color := make([]uint8, len(in.Tasks))
	var stack []frame
	for root := range in.Tasks {
		if color[root] != white {
			continue
		}
		color[root] = grey
		stack = append(stack[:0], frame{task: int32(root)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			deps := in.Tasks[f.task].Deps
			if int(f.next) == len(deps) {
				color[f.task] = black
				stack = stack[:len(stack)-1]
				continue
			}
			d := deps[f.next]
			f.next++
			switch color[d] {
			case grey:
				return false
			case white:
				color[d] = grey
				stack = append(stack, frame{task: int32(d)})
			}
		}
	}
	return true
}

// CloseDeps extends every dependency list to its transitive closure, the
// invariant the allocators' associative task sets rely on, as the server
// does at registration: a list keeps its own entries in order and gains each
// missing ancestor after them, so a list that is already closed (every
// dasc-gen file) comes back unchanged. Tasks are closed dependencies first,
// found by an iterative DFS. Precondition: in has passed Validate, so the
// lists name known, distinct tasks and form no cycle.
func (in *Instance) CloseDeps() {
	tasks := in.Tasks
	done := make([]bool, len(tasks))
	// seen[d] == u+1 marks d as already in task u's closed list.
	seen := make([]int32, len(tasks))
	closeOne := func(u int) {
		stamp := int32(u + 1)
		own := tasks[u].Deps
		for _, d := range own {
			seen[d] = stamp
		}
		deps := own[:len(own):len(own)] // appends must not write into the caller's array
		for _, d := range own {
			for _, dd := range tasks[d].Deps {
				if seen[dd] != stamp {
					seen[dd] = stamp
					deps = append(deps, dd)
				}
			}
		}
		tasks[u].Deps = deps
		done[u] = true
	}
	type frame struct{ task, next int }
	var stack []frame
	for root := range tasks {
		if done[root] {
			continue
		}
		stack = append(stack[:0], frame{task: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			own := tasks[f.task].Deps
			for f.next < len(own) && done[own[f.next]] {
				f.next++
			}
			if f.next == len(own) {
				closeOne(f.task)
				stack = stack[:len(stack)-1]
				continue
			}
			stack = append(stack, frame{task: int(own[f.next])})
		}
	}
}

// Stats summarises an instance for logging and reports.
type Stats struct {
	Workers, Tasks     int
	Edges              int
	RootTasks          int // tasks with no dependencies
	MaxDepSetSize      int
	MeanDepSetSize     float64
	MaxWorkerSkills    int
	CriticalPathLength int
}

// ComputeStats derives summary statistics; dependency-graph figures are zero
// when the dependencies are cyclic.
func (in *Instance) ComputeStats() Stats {
	s := Stats{Workers: len(in.Workers), Tasks: len(in.Tasks)}
	totalDeps := 0
	for i := range in.Tasks {
		n := len(in.Tasks[i].Deps)
		totalDeps += n
		if n == 0 {
			s.RootTasks++
		}
		if n > s.MaxDepSetSize {
			s.MaxDepSetSize = n
		}
	}
	s.Edges = totalDeps
	if len(in.Tasks) > 0 {
		s.MeanDepSetSize = float64(totalDeps) / float64(len(in.Tasks))
	}
	for i := range in.Workers {
		if n := in.Workers[i].Skills.Len(); n > s.MaxWorkerSkills {
			s.MaxWorkerSkills = n
		}
	}
	if g, err := in.DepGraph(); err == nil {
		if cp, err := g.CriticalPathLen(); err == nil {
			s.CriticalPathLength = cp
		}
	}
	return s
}
