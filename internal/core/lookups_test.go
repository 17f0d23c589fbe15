package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dasc/internal/geo"
	"dasc/internal/model"
)

// The map-based references below are the batch lookups as they were before
// TaskLookups: a pending map from task ID to index and a satisfied map. The
// dense lookups must reproduce them exactly.

type mapLookups struct {
	pending   map[model.TaskID]int
	satisfied map[model.TaskID]bool
}

func newMapLookups(b *Batch, satisfied map[model.TaskID]bool) *mapLookups {
	m := &mapLookups{pending: make(map[model.TaskID]int, len(b.Tasks)), satisfied: satisfied}
	for i, t := range b.Tasks {
		m.pending[t.ID] = i
	}
	return m
}

func (m *mapLookups) taskIndex(id model.TaskID) int {
	if i, ok := m.pending[id]; ok {
		return i
	}
	return -1
}

func (m *mapLookups) depSatisfiable(t *model.Task) bool {
	for _, d := range t.Deps {
		if m.satisfied[d] {
			continue
		}
		if _, ok := m.pending[d]; !ok {
			return false
		}
	}
	return true
}

// buildGameWiringMap is the map-based buildGameWiring.
func buildGameWiringMap(b *Batch, m *mapLookups) *gameWiring {
	n := len(b.Tasks)
	w := &gameWiring{
		depOff:        make([]int32, n+1),
		dependantOff:  make([]int32, n+1),
		depCount:      make([]int32, n),
		deadTask:      make([]bool, n),
		satisfiedDeps: make([]int32, n),
		weight:        make([]float64, n),
	}
	seen := make(map[model.TaskID]int)
	for ti, t := range b.Tasks {
		w.weight[ti] = t.EffWeight()
		gen := ti + 1
		for _, d := range t.Deps {
			if seen[d] == gen {
				continue
			}
			seen[d] = gen
			w.depCount[ti]++
			if m.satisfied[d] {
				w.satisfiedDeps[ti]++
				continue
			}
			di := m.taskIndex(d)
			if di < 0 {
				w.deadTask[ti] = true
				continue
			}
			w.depDat = append(w.depDat, int32(di))
		}
		w.depOff[ti+1] = int32(len(w.depDat))
	}
	cnt := make([]int32, n)
	for _, di := range w.depDat {
		cnt[di]++
	}
	off := int32(0)
	for ti := 0; ti < n; ti++ {
		w.dependantOff[ti] = off
		off += cnt[ti]
	}
	w.dependantOff[n] = off
	w.dependantDat = make([]int32, off)
	copy(cnt, w.dependantOff[:n])
	for ti := 0; ti < n; ti++ {
		for _, di := range w.deps(ti) {
			w.dependantDat[cnt[di]] = int32(ti)
			cnt[di]++
		}
	}
	return w
}

// atSetsMap is the map-based atSets.
func atSetsMap(b *Batch, m *mapLookups) []*atSet {
	var sets []*atSet
	seen := make(map[int]bool)
	for ti, t := range b.Tasks {
		if !m.depSatisfiable(t) {
			continue
		}
		s := &atSet{anchor: ti}
		clear(seen)
		seen[ti] = true
		s.members = append(s.members, ti)
		for _, d := range t.Deps {
			if m.satisfied[d] {
				continue
			}
			di := m.taskIndex(d)
			if seen[di] {
				continue
			}
			seen[di] = true
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

// dependencyFixpointMap is the map-based DependencyFixpoint.
func dependencyFixpointMap(b *Batch, m *mapLookups, a *model.Assignment) *model.Assignment {
	cur := a
	for {
		kept := cur.TaskSet()
		next := model.NewAssignment()
		for _, p := range cur.Pairs {
			t := b.In.Task(p.Task)
			ok := true
			for _, d := range t.Deps {
				if !kept[d] && !m.satisfied[d] {
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

// randomLookupBatch draws one batch over in: a shuffled pending subset, a
// satisfied set drawn mostly from the other tasks (and now and then from a
// pending one, which only a hand-built batch can hold), and one worker.
func randomLookupBatch(rng *rand.Rand, in *model.Instance) ([]*model.Task, map[model.TaskID]bool) {
	var tasks []*model.Task
	satisfied := map[model.TaskID]bool{}
	for i := range in.Tasks {
		switch r := rng.Intn(10); {
		case r < 4:
			tasks = append(tasks, &in.Tasks[i])
			if rng.Intn(20) == 0 {
				satisfied[in.Tasks[i].ID] = true
			}
		case r < 7:
			satisfied[in.Tasks[i].ID] = true
		}
	}
	rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	return tasks, satisfied
}

// randomLookupInstance draws tasks whose dependency lists hold duplicates
// and name tasks anywhere in the registry, so a batch sees satisfied,
// pending and absent dependencies.
func randomLookupInstance(rng *rand.Rand, n int) *model.Instance {
	in := &model.Instance{Tasks: make([]model.Task, n)}
	for i := range in.Tasks {
		t := &in.Tasks[i]
		t.ID = model.TaskID(i)
		t.Loc = geo.Pt(rng.Float64(), rng.Float64())
		t.Wait = 10
		t.Weight = float64(rng.Intn(3))
		for k := rng.Intn(7); k > 0; k-- {
			d := model.TaskID(rng.Intn(n))
			t.Deps = append(t.Deps, d)
			if rng.Intn(4) == 0 {
				t.Deps = append(t.Deps, d) // duplicate entry
			}
		}
	}
	return in
}

func lookupWorkers(in *model.Instance) []BatchWorker {
	in.Workers = []model.Worker{{ID: 0, Wait: 100, Velocity: 1, MaxDist: 10, Skills: model.NewSkillSet(0)}}
	return []BatchWorker{{W: &in.Workers[0], DistBudget: 10}}
}

func checkLookupsAgree(t *testing.T, b *Batch, m *mapLookups) {
	t.Helper()
	for id := model.TaskID(-2); int(id) < len(b.In.Tasks)+2; id++ {
		if got, want := b.TaskIndex(id), m.taskIndex(id); got != want {
			t.Fatalf("TaskIndex(t%d) = %d, map %d", id, got, want)
		}
		if got, want := b.Satisfied.Has(id), m.satisfied[id]; got != want {
			t.Fatalf("Satisfied.Has(t%d) = %v, map %v", id, got, want)
		}
	}
	for _, task := range b.Tasks {
		if got, want := b.DepSatisfiable(task), m.depSatisfiable(task); got != want {
			t.Fatalf("DepSatisfiable(t%d) = %v, map %v", task.ID, got, want)
		}
	}
	got, want := buildGameWiring(b), buildGameWiringMap(b, m)
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"depOff", got.depOff, want.depOff},
		{"depDat", got.depDat, want.depDat},
		{"dependantOff", got.dependantOff, want.dependantOff},
		{"dependantDat", got.dependantDat, want.dependantDat},
		{"depCount", got.depCount, want.depCount},
		{"satisfiedDeps", got.satisfiedDeps, want.satisfiedDeps},
		{"deadTask", got.deadTask, want.deadTask},
		{"weight", got.weight, want.weight},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("wiring %s:\ndense %v\nmap   %v", f.name, f.got, f.want)
		}
	}
	if got, want := atSets(b), atSetsMap(b, m); !reflect.DeepEqual(got, want) {
		t.Fatalf("atSets differ:\ndense %s\nmap   %s", fmtSets(got), fmtSets(want))
	}
	// A raw assignment over pending tasks, repeated tasks and a task
	// outside the batch, as a misbehaving allocator might return.
	raw := model.NewAssignment()
	for k := 0; k < len(b.Tasks)/2+2; k++ {
		var id model.TaskID
		if len(b.Tasks) > 0 && k%5 != 4 {
			id = b.Tasks[(k*7)%len(b.Tasks)].ID
		} else {
			id = model.TaskID((k * 13) % len(b.In.Tasks))
		}
		raw.Add(model.WorkerID(k), id)
	}
	if got, want := DependencyFixpoint(b, raw), dependencyFixpointMap(b, m, raw); !reflect.DeepEqual(got, want) {
		t.Fatalf("DependencyFixpoint:\ndense %v\nmap   %v", got.Pairs, want.Pairs)
	}
}

func fmtSets(sets []*atSet) string {
	s := ""
	for _, a := range sets {
		s += fmt.Sprintf("{%d %v %d %v} ", a.anchor, a.members, a.alive, a.weight)
	}
	return s
}

// TestDenseLookupsMatchMaps compares the dense lookups with the map-based
// references on random batches, both through NewBatch (own lookups) and
// through NewLiveBatch over one TaskLookups reused batch after batch, the
// platforms' path, where every batch meets the stale positions and stamps
// of the batches before it.
func TestDenseLookupsMatchMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		in := randomLookupInstance(rng, 5+rng.Intn(60))
		workers := lookupWorkers(in)
		var shared TaskLookups
		shared.Grow(len(in.Tasks))
		for k := 0; k < 15; k++ {
			tasks, satisfied := randomLookupBatch(rng, in)
			checkLookupsAgree(t, NewBatch(in, workers, tasks, satisfied), newMapLookups(&Batch{Tasks: tasks}, satisfied))

			clear(shared.Satisfied)
			for id := range satisfied {
				shared.Satisfied.Add(id)
			}
			b := NewLiveBatch(in, workers, tasks, &shared)
			checkLookupsAgree(t, b, newMapLookups(b, satisfied))
		}
	}
}

// TestNewBatchLookupsCoverForeignIDs: a hand-built batch may name tasks and
// dependencies beyond its instance's registry; its own lookups are sized to
// cover them.
func TestNewBatchLookupsCoverForeignIDs(t *testing.T) {
	in := &model.Instance{Tasks: []model.Task{{ID: 0}}}
	far := &model.Task{ID: 40, Deps: []model.TaskID{90, 90, 0}}
	b := NewBatch(in, lookupWorkers(in), []*model.Task{far, &in.Tasks[0]}, map[model.TaskID]bool{70: true, 90: true})
	if b.TaskIndex(40) != 0 || b.TaskIndex(0) != 1 || b.TaskIndex(70) != -1 {
		t.Errorf("TaskIndex: t40 %d, t0 %d, t70 %d", b.TaskIndex(40), b.TaskIndex(0), b.TaskIndex(70))
	}
	w := buildGameWiring(b)
	if w.depCount[0] != 2 || w.satisfiedDeps[0] != 1 || w.deadTask[0] || !slices.Equal(w.deps(0), []int32{1}) {
		t.Errorf("wiring of t40: count %d, satisfied %d, dead %v, deps %v", w.depCount[0], w.satisfiedDeps[0], w.deadTask[0], w.deps(0))
	}
}
