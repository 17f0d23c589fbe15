package core

import (
	"slices"

	"dasc/internal/model"
)

// TaskLookups is the dense, task-ID-indexed state behind a Batch's
// dependency lookups: the satisfied set, each pending task's position in
// Batch.Tasks, and the stamps that deduplicate dependency lists. Task IDs
// are dense registry indexes, so slices replace the hash maps.
//
// The owner grows it as tasks register (Grow), never per batch, and each
// batch writes only its own tasks' positions, so a batch touches O(live)
// entries however long the registry's history. Position entries of tasks
// outside the batch are stale, and that is safe: a lookup accepts pos[id]
// only when Tasks[pos[id]].ID == id, which a stale entry can never pass
// while IDs are unique within the batch. Stamps only ever increase, and a
// 64-bit counter never wraps, so the stamp slice is never cleared either.
//
// One TaskLookups serves one batch at a time: building the next batch over
// it rewrites the positions the previous batch read.
type TaskLookups struct {
	// Satisfied marks tasks whose dependency obligation earlier batches met.
	Satisfied model.TaskBits

	pos   []int32  // task ID -> index into the batch's Tasks
	stamp []uint64 // task ID -> last dedupe stamp (buildGameWiring)
	gen   uint64
}

// Grow makes room for every task ID below n. Batches built over l must
// only name tasks and dependencies below the n of the latest Grow.
func (l *TaskLookups) Grow(n int) {
	l.Satisfied.Grow(n)
	if n > len(l.pos) {
		l.pos = slices.Grow(l.pos, n-len(l.pos))[:n]
		l.stamp = slices.Grow(l.stamp, n-len(l.stamp))[:n]
	}
}

// NewLiveBatch assembles a batch over caller-owned lookups, writing the
// positions of tasks into l in O(len(tasks)). It is the platforms' per-tick
// constructor: nothing here is sized by the registry.
func NewLiveBatch(in *model.Instance, workers []BatchWorker, tasks []*model.Task, l *TaskLookups) *Batch {
	for i, t := range tasks {
		if uint(t.ID) < uint(len(l.pos)) {
			l.pos[t.ID] = int32(i)
		}
	}
	b := &Batch{In: in, Workers: workers, Tasks: tasks, Satisfied: l.Satisfied, lk: l}
	b.init()
	return b
}

// newOwnLookups sizes lookups for a hand-built batch: every ID that tasks
// and their dependencies name fits (negative IDs excepted).
func newOwnLookups(tasks []*model.Task, satisfied map[model.TaskID]bool) *TaskLookups {
	n := 0
	fit := func(id model.TaskID) {
		if int(id) >= n {
			n = int(id) + 1
		}
	}
	for _, t := range tasks {
		fit(t.ID)
		for _, d := range t.Deps {
			fit(d)
		}
	}
	l := &TaskLookups{}
	l.Grow(n)
	for id, ok := range satisfied {
		if ok && id >= 0 {
			l.Satisfied.Add(id)
		}
	}
	return l
}

// nextStamp returns a stamp no entry of l.stamp holds yet.
func (l *TaskLookups) nextStamp() uint64 {
	l.gen++
	return l.gen
}

// markOnce stamps id and reports whether it already carried stamp, that is
// whether the current dedupe pass saw it before. IDs outside the lookups
// (negative ones, in hand-built batches) are never deduplicated.
func (l *TaskLookups) markOnce(id model.TaskID, stamp uint64) (dup bool) {
	if uint(id) >= uint(len(l.stamp)) {
		return false
	}
	dup = l.stamp[id] == stamp
	l.stamp[id] = stamp
	return dup
}
