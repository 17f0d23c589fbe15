package core

import (
	"math/bits"
	"math/rand"
	"testing"

	"dasc/internal/model"
)

// ExactDP is a second exact solver, independent of the DFS branch-and-bound:
// it enumerates task subsets as bitmasks, keeps only the dependency-closed
// ones, and checks staffability with a maximum bipartite matching. The best
// closed, fully-staffable subset is the optimum, because any valid
// assignment's task set is closed and staffable, and vice versa.
//
// Limited to batches with at most 24 pending tasks (2^24 subsets); larger
// batches return ok=false from AssignExact. It is a test oracle: it
// cross-validates DFS, approaching the optimum from a completely different
// algorithmic angle.
type ExactDP struct {
	// MaxTasks overrides the 24-task guard.
	MaxTasks int
}

// NewExactDP returns the subset-DP exact solver.
func NewExactDP() *ExactDP { return &ExactDP{} }

// AssignExact computes the optimal batch assignment. ok is false when the
// batch exceeds the subset-enumeration limit.
func (e *ExactDP) AssignExact(b *Batch) (*model.Assignment, bool) {
	limit := e.MaxTasks
	if limit <= 0 {
		limit = 24
	}
	m := len(b.Tasks)
	if m > limit {
		return model.NewAssignment(), false
	}

	// depMask[ti] = bitmask of ti's unsatisfied dependencies; dead tasks
	// (dependency outside the batch and unsatisfied) can never be assigned.
	depMask := make([]uint32, m)
	dead := uint32(0)
	for ti, t := range b.Tasks {
		for _, d := range t.Deps {
			if b.Satisfied.Has(d) {
				continue
			}
			di := b.TaskIndex(d)
			if di < 0 {
				dead |= 1 << uint(ti)
				break
			}
			depMask[ti] |= 1 << uint(di)
		}
	}
	candidates := make([][]int, m)
	for ti, t := range b.Tasks {
		candidates[ti] = b.CandidateWorkers(t)
	}

	weights := make([]float64, m)
	maxW := 0.0
	for ti, t := range b.Tasks {
		weights[ti] = t.EffWeight()
		if weights[ti] > maxW {
			maxW = weights[ti]
		}
	}
	bestMask := uint32(0)
	bestWeight := 0.0
	total := uint32(1) << uint(m)
	for mask := uint32(1); mask < total; mask++ {
		// Weight upper bound prunes the matching calls.
		if float64(bits.OnesCount32(mask))*maxW <= bestWeight {
			continue
		}
		if mask&dead != 0 {
			continue
		}
		var weight float64
		for rest := mask; rest != 0; rest &= rest - 1 {
			weight += weights[bits.TrailingZeros32(rest)]
		}
		if weight <= bestWeight {
			continue
		}
		// Closure: every member's dependencies are inside the mask.
		closed := true
		rest := mask
		for rest != 0 {
			ti := bits.TrailingZeros32(rest)
			rest &= rest - 1
			if depMask[ti]&^mask != 0 {
				closed = false
				break
			}
		}
		if !closed {
			continue
		}
		if e.staffable(mask, candidates) {
			bestMask, bestWeight = mask, weight
		}
	}
	if bestMask == 0 {
		return model.NewAssignment(), true
	}
	// Materialise one concrete staffing for the winning subset.
	members := make([]int, 0, bits.OnesCount32(bestMask))
	for rest := bestMask; rest != 0; rest &= rest - 1 {
		members = append(members, bits.TrailingZeros32(rest))
	}
	bg, cols := subsetGraph(members, candidates)
	matchL, _ := bg.MaxMatchingHK()
	out := model.NewAssignment()
	for row, ti := range members {
		out.Add(b.Workers[cols[matchL[row]]].W.ID, b.Tasks[ti].ID)
	}
	return finishAssignment(b, out), true
}

// staffable reports whether every task in the mask can get a distinct
// feasible worker.
func (e *ExactDP) staffable(mask uint32, candidates [][]int) bool {
	members := make([]int, 0, bits.OnesCount32(mask))
	for rest := mask; rest != 0; rest &= rest - 1 {
		members = append(members, bits.TrailingZeros32(rest))
	}
	bg, _ := subsetGraph(members, candidates)
	_, size := bg.MaxMatchingHK()
	return size == len(members)
}

func TestExactDPExample1(t *testing.T) {
	b := NewStaticBatch(model.Example1())
	dp := NewExactDP()
	a, ok := dp.AssignExact(b)
	if !ok {
		t.Fatal("tiny instance over the limit")
	}
	validateBatchAssignment(t, b, a)
	if a.Size() != 3 {
		t.Fatalf("ExactDP score = %d, want 3", a.Size())
	}
}

// TestExactDPMatchesDFS: two independent exact solvers must agree on the
// optimum for random instances.
func TestExactDPMatchesDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(rng, 2+rng.Intn(6), 2+rng.Intn(9), 3, true)
		b := NewStaticBatch(in)
		dfs := NewDFS(DFSOptions{})
		optDFS := dfs.Assign(b).Size()
		if !dfs.Exact() {
			t.Fatalf("trial %d: DFS truncated", trial)
		}
		dp := NewExactDP()
		a, ok := dp.AssignExact(b)
		if !ok {
			t.Fatalf("trial %d: DP over limit", trial)
		}
		validateBatchAssignment(t, b, a)
		if a.Size() != optDFS {
			t.Fatalf("trial %d: DP %d != DFS %d", trial, a.Size(), optDFS)
		}
	}
}

func TestExactDPWithSatisfiedAndDeadDeps(t *testing.T) {
	in := &model.Instance{
		Workers: []model.Worker{
			{ID: 0, Start: 0, Wait: 100, Velocity: 1, MaxDist: 100, Skills: model.NewSkillSet(0)},
		},
		Tasks: []model.Task{
			{ID: 0, Start: 0, Wait: 100, Requires: 0},
			{ID: 1, Start: 0, Wait: 100, Requires: 0, Deps: []model.TaskID{0}},
		},
	}
	// Only t1 pending; t0 satisfied earlier → assignable.
	b := NewBatch(in,
		[]BatchWorker{{W: &in.Workers[0], Loc: in.Workers[0].Loc, ReadyAt: 0, DistBudget: 100}},
		[]*model.Task{&in.Tasks[1]},
		map[model.TaskID]bool{0: true})
	a, ok := NewExactDP().AssignExact(b)
	if !ok || a.Size() != 1 {
		t.Fatalf("satisfied dep: %v ok=%v", a, ok)
	}
	// Only t1 pending; t0 absent and unsatisfied → dead.
	b2 := NewBatch(in, b.Workers, b.Tasks, nil)
	a2, ok := NewExactDP().AssignExact(b2)
	if !ok || a2.Size() != 0 {
		t.Fatalf("dead dep assigned: %v", a2)
	}
}

func TestExactDPOverLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	in := randomInstance(rng, 3, 6, 2, false)
	b := NewStaticBatch(in)
	dp := &ExactDP{MaxTasks: 4}
	if a, ok := dp.AssignExact(b); ok || a.Size() != 0 {
		t.Error("limit not enforced")
	}
}

func TestExactDPEmptyBatch(t *testing.T) {
	b := NewStaticBatch(&model.Instance{})
	a, ok := NewExactDP().AssignExact(b)
	if !ok || a.Size() != 0 {
		t.Errorf("empty batch: %v ok=%v", a, ok)
	}
}
