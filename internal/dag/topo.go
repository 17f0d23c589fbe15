package dag

// TopoSort returns a topological order in which every task appears after all
// of its dependencies (dependencies-first). It returns ErrCycle when the
// graph is cyclic. Kahn's algorithm with an index-ordered frontier makes the
// output deterministic.
func (g *Graph) TopoSort() ([]int, error) {
	n := g.Len()
	indeg := make([]int, n)
	for u := range g.deps {
		indeg[u] = len(g.deps[u])
	}
	// Min-heap on vertex index keeps the order stable across runs.
	frontier := &intHeap{}
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			frontier.push(u)
		}
	}
	order := make([]int, 0, n)
	for frontier.len() > 0 {
		v := frontier.pop()
		order = append(order, v)
		for _, u := range g.dependents[v] {
			indeg[u]--
			if indeg[u] == 0 {
				frontier.push(int(u))
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// IsAcyclic reports whether the graph has no dependency cycles.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoSort()
	return err == nil
}

// FindCycle returns one dependency cycle as a vertex sequence
// v0 → v1 → … → v0 (each vertex depends on the next), or nil when the graph
// is acyclic.
func (g *Graph) FindCycle() []int {
	const (
		white = 0 // unvisited
		grey  = 1 // on stack
		black = 2 // done
	)
	n := g.Len()
	color := make([]uint8, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = grey
		for _, v32 := range g.deps[u] {
			v := int(v32)
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case grey:
				// Found a back edge u → v; unwind u..v via parents.
				cycle = append(cycle, v)
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				// Reverse so the cycle follows dependency direction.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for u := 0; u < n; u++ {
		if color[u] == white && dfs(u) {
			return cycle
		}
	}
	return nil
}

// CriticalPathLen returns the length (edge count) of the longest dependency
// chain, or ErrCycle.
func (g *Graph) CriticalPathLen() (int, error) {
	level, err := g.levels()
	if err != nil {
		return 0, err
	}
	longest := 0
	for _, l := range level {
		longest = max(longest, l)
	}
	return longest, nil
}

// levels returns, for every vertex, the length of the longest dependency
// chain below it: 0 for a task without dependencies. Returns ErrCycle on
// cyclic graphs.
func (g *Graph) levels() ([]int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	level := make([]int, g.Len())
	for _, u := range order {
		for _, v := range g.deps[u] {
			level[u] = max(level[u], level[v]+1)
		}
	}
	return level, nil
}

// intHeap is a tiny min-heap of ints used by TopoSort.
type intHeap struct{ a []int }

func (h *intHeap) len() int { return len(h.a) }

func (h *intHeap) push(v int) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l] < h.a[small] {
			small = l
		}
		if r < last && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
