package step

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dasc/internal/model"
)

func TestDependencyOrder(t *testing.T) {
	in := model.Example1()
	m := model.NewAssignment()
	m.Add(2, 2) // t3 depends on t1, t2
	m.Add(0, 1) // t2 depends on t1
	m.Add(1, 0) // t1
	slot := make([]int32, len(in.Tasks))
	order := dependencyOrder(in, m, slot)
	pos := map[model.TaskID]int{}
	for i, p := range order {
		pos[p.Task] = i
	}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	if !(pos[0] < pos[1] && pos[1] < pos[2]) {
		t.Errorf("dependencyOrder violated: %v", order)
	}
	// Pairs whose dependencies are outside the assignment keep their place.
	m2 := model.NewAssignment()
	m2.Add(0, 2) // deps t0, t1 not assigned
	if got := dependencyOrder(in, m2, slot); len(got) != 1 || got[0].Task != 2 {
		t.Errorf("partial order = %v", got)
	}
}

// TestDependencyOrderMatchesMap: the dense dependencyOrder returns exactly
// the map-based order on random assignments that repeat tasks, leave
// dependencies out and reuse one slot slice, so every call meets the stale
// entries of the calls before it.
func TestDependencyOrderMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 60
	in := &model.Instance{Tasks: make([]model.Task, n)}
	for i := range in.Tasks {
		in.Tasks[i].ID = model.TaskID(i)
		for d := 0; d < i; d++ {
			if rng.Intn(8) == 0 {
				in.Tasks[i].Deps = append(in.Tasks[i].Deps, model.TaskID(d))
			}
		}
	}
	slot := make([]int32, n)
	for k := 0; k < 500; k++ {
		m := model.NewAssignment()
		for p := rng.Intn(25); p > 0; p-- {
			m.Add(model.WorkerID(rng.Intn(10)), model.TaskID(rng.Intn(n)))
		}
		got, want := dependencyOrder(in, m, slot), dependencyOrderMap(in, m)
		if !slices.Equal(got, want) {
			t.Fatalf("assignment %v:\ndense %v\nmap   %v", m.Pairs, got, want)
		}
	}
}

// TestPopulationAdvance registers entities with random starts and IDs in
// ascending order, then advances in steps: the live list must ascend and
// hold exactly the entities started and not retired.
func TestPopulationAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var p population
	starts := make([]float64, 500)
	for i := range starts {
		starts[i] = float64(rng.Intn(100))
		p.place(int32(i), starts[i], -1, false)
	}
	for now := -1.0; now < 110; now += 7 {
		retired := func(id int32) bool { return id%3 == 0 && starts[id] < now-20 }
		p.advance(now, retired)
		var want []int32
		for i, s := range starts {
			if s <= now && !retired(int32(i)) {
				want = append(want, int32(i))
			}
		}
		if !slices.Equal(p.live, want) {
			t.Fatalf("now %v: live %v, want %v", now, p.live, want)
		}
	}
	if len(p.wait) != 0 {
		t.Fatalf("%d entities still waiting", len(p.wait))
	}
}

// TestPlacementNaNStart keeps the full scan's reading of a NaN start (the
// simulator does not reject one): "NaN > now" is false, so the entity has
// arrived, and a NaN expiry never passes.
func TestPlacementNaNStart(t *testing.T) {
	in := &model.Instance{Workers: []model.Worker{{Start: math.NaN(), Wait: 1, Skills: model.NewSkillSet(0)}}}
	s := New(Config{}, in, math.Inf(-1))
	if len(s.workers.live) != 1 || len(s.workers.wait) != 0 {
		t.Fatalf("NaN-start worker: live %v, waiting %d", s.workers.live, len(s.workers.wait))
	}
}
