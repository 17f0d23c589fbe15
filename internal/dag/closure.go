package dag

// IsTransitivelyClosed reports whether every vertex's direct dependency set
// already equals its ancestor set: for every edge u → v, everything v
// depends on is also a direct dependency of u. The check is meant for
// acyclic graphs.
func (g *Graph) IsTransitivelyClosed() bool {
	mark := make([]int, g.Len()) // mark[v] == u+1: v is a direct dependency of u
	for u, deps := range g.deps {
		for _, v := range deps {
			mark[v] = u + 1
		}
		for _, v := range deps {
			for _, w := range g.deps[v] {
				if mark[w] != u+1 {
					return false
				}
			}
		}
	}
	return true
}

// TransitiveReduction returns the minimal graph with the same reachability:
// an edge u → v is kept only when v is not reachable from u through another
// dependency. Useful for rendering dependency charts. Returns ErrCycle on
// cyclic graphs.
func (g *Graph) TransitiveReduction() (*Graph, error) {
	if !g.IsAcyclic() {
		return nil, ErrCycle
	}
	out := New(g.Len())
	for u := 0; u < g.Len(); u++ {
		// v is redundant if some other dependency w of u can reach v.
		direct := g.deps[u]
		for _, v32 := range direct {
			v := int(v32)
			redundant := false
			for _, w32 := range direct {
				w := int(w32)
				if w == v {
					continue
				}
				if g.reaches(w, v) {
					redundant = true
					break
				}
			}
			if !redundant {
				if err := out.AddDep(u, v); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// reaches reports whether target is reachable from start along dependencies.
func (g *Graph) reaches(start, target int) bool {
	if start == target {
		return true
	}
	seen := make(map[int]bool)
	stack := []int{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v32 := range g.deps[u] {
			v := int(v32)
			if v == target {
				return true
			}
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}
