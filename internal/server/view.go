package server

import (
	"slices"

	"dasc/internal/model"
)

// readView is the atomically swapped read snapshot the HTTP read endpoints
// (/v1/stats, /v1/assignments, /v1/instance, /v1/svg) serve from instead of
// taking the big platform mutex — a read under heavy ingest costs one atomic
// pointer load, never a lock that a group commit (journal fsync) is holding.
//
// The view aliases the step's worker/task registries and its commit log
// rather than copying them. That is safe because all three are append-only
// and their elements are never mutated after publication (all mutable
// dispatch state lives in the step's worker states): a later append either
// writes beyond this view's length or reallocates, and readers never look
// past the view's own bounds. The three-index slice expressions in
// publishViewLocked pin the capacity so the aliasing contract is explicit.
type readView struct {
	stats   Stats
	commits []model.Pair // valid pairs in dispatch order
	workers []model.Worker
	tasks   []model.Task
}

// assignMemo is the sorted assignment view last materialised from the
// first n commits. Published memos are immutable; the commit log only grows
// (a snapshot restore happens before the first commit), so n identifies it.
type assignMemo struct {
	n int
	a *model.Assignment
}

// publishViewLocked swaps in a read view of the current state in O(1): the
// sorted assignment view is materialised lazily by the first reader that
// needs it (AssignmentsView), not by every tick.
//
// requires: p.mu
func (p *Platform) publishViewLocked() {
	in, commits := p.st.Instance(), p.st.Commits()
	p.view.Store(&readView{
		stats:   p.statsLocked(),
		commits: commits[:len(commits):len(commits)],
		workers: in.Workers[:len(in.Workers):len(in.Workers)],
		tasks:   in.Tasks[:len(in.Tasks):len(in.Tasks)],
	})
}

// loadView returns the current read view, building one on the rare path of
// a platform that predates the first publish.
func (p *Platform) loadView() *readView {
	if v := p.view.Load(); v != nil {
		return v
	}
	p.publishView()
	return p.view.Load()
}

// StatsView returns the platform counters from the read view, without
// taking the platform mutex. Every mutation republishes the view, so this is
// never stale relative to acknowledged operations.
func (p *Platform) StatsView() Stats { return p.loadView().stats }

// AssignmentsView returns every valid pair so far, sorted by task ID, from
// the read view. The returned assignment is shared and MUST be treated as
// read-only; use Assignments for a private copy.
func (p *Platform) AssignmentsView() *model.Assignment {
	v := p.loadView()
	if m := p.asgMemo.Load(); m != nil && m.n == len(v.commits) {
		return m.a
	}
	a := &model.Assignment{Pairs: slices.Clone(v.commits)}
	a.Sort()
	p.asgMemo.Store(&assignMemo{n: len(v.commits), a: a})
	return a
}

// InstanceView returns the current worker and task registries from the read
// view without copying. The instance aliases live platform storage and MUST
// be treated as read-only; use Instance for a deep copy.
func (p *Platform) InstanceView() *model.Instance {
	v := p.loadView()
	return &model.Instance{Workers: v.workers, Tasks: v.tasks, Dist: p.dist}
}
