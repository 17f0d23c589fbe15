package core

import (
	"fmt"
	"math/rand"
	"sort"

	"dasc/internal/model"
)

// Allocator assigns the workers of one batch to its tasks. Implementations
// must return an assignment that satisfies all four DA-SC constraints with
// respect to the batch (dependencies may be met by batch-internal
// co-assignment or by Batch.Satisfied).
type Allocator interface {
	// Name returns the identifier used in experiment tables, e.g. "Greedy".
	Name() string
	// Assign computes the batch assignment M_b.
	Assign(b *Batch) *model.Assignment
}

// Known allocator names, matching the labels of the paper's figures.
const (
	NameGreedy  = "Greedy"
	NameGame    = "Game"
	NameGame5   = "Game-5%"
	NameGG      = "G-G"
	NameClosest = "Closest"
	NameRandom  = "Random"
	NameDFS     = "DFS"
)

// NewByName constructs an allocator from its paper label, seeding its
// randomness from seed. It returns an error on unknown names.
func NewByName(name string, seed int64) (Allocator, error) {
	switch name {
	case NameGreedy:
		return NewGreedy(), nil
	case NameGame:
		return NewGame(GameOptions{Seed: seed}), nil
	case NameGame5:
		return NewGame(GameOptions{Seed: seed, Threshold: 0.05}), nil
	case NameGG:
		return NewGame(GameOptions{Seed: seed, GreedyInit: true}), nil
	case NameClosest:
		return NewClosest(), nil
	case NameRandom:
		return NewRandom(seed), nil
	case NameDFS:
		return NewDFS(DFSOptions{}), nil
	default:
		return nil, fmt.Errorf("core: unknown allocator %q", name)
	}
}

// AllNames lists the six approaches compared throughout Section V, in the
// paper's plotting order.
func AllNames() []string {
	return []string{NameGG, NameGame, NameGame5, NameGreedy, NameClosest, NameRandom}
}

// finishAssignment applies the batch-aware dependency fixpoint filter and
// sorts, so every allocator returns a canonical, constraint-satisfying
// result. Pair feasibility (skill/deadline/distance) is the allocator's
// responsibility — every implementation only ever proposes pairs that passed
// Batch.Feasible.
func finishAssignment(b *Batch, a *model.Assignment) *model.Assignment {
	out := DependencyFixpoint(b, a)
	out.Sort()
	return out
}

// DependencyFixpoint repeatedly removes pairs whose task has a dependency
// that is neither kept in the assignment nor in b.Satisfied, until stable.
// The result satisfies the dependency constraint by construction.
func DependencyFixpoint(b *Batch, a *model.Assignment) *model.Assignment {
	// kept marks the current round's tasks by pending index. A pair naming a
	// task outside the batch (only a misbehaving allocator produces one)
	// still counts as kept, through keptOff.
	kept := make([]bool, len(b.Tasks))
	var keptOff map[model.TaskID]bool
	isKept := func(id model.TaskID) bool {
		if ti := b.TaskIndex(id); ti >= 0 {
			return kept[ti]
		}
		return keptOff[id]
	}
	cur := a
	for {
		clear(kept)
		clear(keptOff)
		for _, p := range cur.Pairs {
			if ti := b.TaskIndex(p.Task); ti >= 0 {
				kept[ti] = true
				continue
			}
			if keptOff == nil {
				keptOff = make(map[model.TaskID]bool)
			}
			keptOff[p.Task] = true
		}
		next := model.NewAssignment()
		for _, p := range cur.Pairs {
			t := b.In.Task(p.Task)
			ok := true
			for _, d := range t.Deps {
				if !b.Satisfied.Has(d) && !isKept(d) {
					ok = false
					break
				}
			}
			if ok {
				next.Add(p.Worker, p.Task)
			}
		}
		if next.Size() == cur.Size() {
			return next
		}
		cur = next
	}
}

// newRNG returns a deterministic generator for the given seed.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// stableSortByDesc sorts idxs descending by key, breaking ties by index
// ascending, deterministically.
func stableSortByDesc(idxs []int, key func(int) float64) {
	sort.SliceStable(idxs, func(i, j int) bool {
		ki, kj := key(idxs[i]), key(idxs[j])
		if ki != kj {
			return ki > kj
		}
		return idxs[i] < idxs[j]
	})
}
