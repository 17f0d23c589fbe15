package core

// atSet is one associative task set tc_t = ({t} ∪ D_t) \ Satisfied: the
// anchor task plus every not-yet-satisfied dependency, all of which must be
// staffed simultaneously for the anchor to become assignable. Task members
// are stored as indexes into the batch's pending task slice.
type atSet struct {
	anchor  int   // index of t in Batch.Tasks
	members []int // pending task indexes, including the anchor
	alive   int   // number of members not yet assigned this batch
	// weight is the summed effective weight of the alive members — equal to
	// alive under the paper's unit weights, and the greedy selection key in
	// the weighted extension.
	weight float64
}

// atSets builds one associative set per pending task whose dependencies are
// all satisfiable this batch (Satisfied or co-pending); anchors with an
// unreachable dependency are skipped — they cannot be validly assigned in
// batch b no matter what.
//
// Members are deduplicated: a task listing the same dependency twice (legal
// in hand-built instances that bypass Instance.Validate) must not
// double-count the set's weight or make staff demand two distinct workers
// for one task — that would turn a staffable set spuriously infeasible.
func atSets(b *Batch) []*atSet {
	var sets []*atSet
	// seen[di] == ti+1 marks pending task di as a member of ti's set; the
	// stamp changes with the anchor, so the slice is never cleared.
	seen := make([]int32, len(b.Tasks))
	for ti, t := range b.Tasks {
		if !b.DepSatisfiable(t) {
			continue
		}
		s := &atSet{anchor: ti}
		stamp := int32(ti + 1)
		seen[ti] = stamp
		s.members = append(s.members, ti)
		for _, d := range t.Deps {
			if b.Satisfied.Has(d) {
				continue
			}
			di := b.TaskIndex(d)
			if seen[di] == stamp {
				continue
			}
			seen[di] = stamp
			s.members = append(s.members, di)
		}
		s.alive = len(s.members)
		for _, ti := range s.members {
			s.weight += b.Tasks[ti].EffWeight()
		}
		sets = append(sets, s)
	}
	return sets
}

// aliveMembers returns the member task indexes not yet assigned, given the
// assigned marker slice (indexed by pending task index).
func (s *atSet) aliveMembers(assigned []bool) []int {
	out := make([]int, 0, s.alive)
	for _, ti := range s.members {
		if !assigned[ti] {
			out = append(out, ti)
		}
	}
	return out
}

// recount refreshes s.alive and s.weight against the assigned markers,
// returning the alive count. The batch supplies the task weights.
func (s *atSet) recount(b *Batch, assigned []bool) int {
	n := 0
	var w float64
	for _, ti := range s.members {
		if !assigned[ti] {
			n++
			w += b.Tasks[ti].EffWeight()
		}
	}
	s.alive = n
	s.weight = w
	return n
}

// setHeap is a max-heap of associative sets ordered by recorded weight
// (larger first; ties by anchor index ascending for determinism). Entries may
// be stale — pop-time recount handles that lazily.
type setHeap struct {
	entries []setEntry
}

type setEntry struct {
	weight float64
	set    *atSet
}

func (h *setHeap) push(e setEntry) {
	h.entries = append(h.entries, e)
	i := len(h.entries) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.entries[p], h.entries[i] = h.entries[i], h.entries[p]
		i = p
	}
}

// less orders entry i before entry j when i has the larger weight (or equal
// weight and smaller anchor).
func (h *setHeap) less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if a.weight != b.weight {
		return a.weight > b.weight
	}
	return a.set.anchor < b.set.anchor
}

func (h *setHeap) pop() (setEntry, bool) {
	if len(h.entries) == 0 {
		return setEntry{}, false
	}
	top := h.entries[0]
	last := len(h.entries) - 1
	h.entries[0] = h.entries[last]
	h.entries = h.entries[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && h.less(l, best) {
			best = l
		}
		if r < last && h.less(r, best) {
			best = r
		}
		if best == i {
			break
		}
		h.entries[i], h.entries[best] = h.entries[best], h.entries[i]
		i = best
	}
	return top, true
}

func (h *setHeap) len() int { return len(h.entries) }
