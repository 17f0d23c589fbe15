package model

import (
	"fmt"
	"math/rand"
	"testing"

	"dasc/internal/dag"
)

// validateOracle is the reference Validate: a map per task for duplicates
// and a full dag.Graph for acyclicity. The linear-time Validate must return
// the same error text on every instance, or nil where it does.
func validateOracle(in *Instance) error {
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
		seen := make(map[TaskID]bool, len(t.Deps))
		for _, d := range t.Deps {
			if in.Task(d) == nil {
				return fmt.Errorf("model: task t%d depends on unknown task t%d", t.ID, d)
			}
			if d == t.ID {
				return fmt.Errorf("model: task t%d depends on itself", t.ID)
			}
			if seen[d] {
				return fmt.Errorf("model: task t%d lists dependency t%d twice", t.ID, d)
			}
			seen[d] = true
		}
	}
	g, err := in.DepGraph()
	if err != nil {
		return err
	}
	if cyc := g.FindCycle(); cyc != nil {
		return fmt.Errorf("model: dependency cycle %v: %w", cyc, dag.ErrCycle)
	}
	return nil
}

// instanceFromBytes decodes an instance whose dependency lists hold
// duplicates, self-edges, unknown IDs (-1 and n), 2-cycles, long chains and
// long cycles. The first byte sizes the task set, the second picks a
// shape: bit 0 chains every task to its predecessor, bit 1 closes the
// chain into a cycle, bit 2 gives one task a negative wait, bit 3 one
// worker a bad ID. Every later byte pair (task, dependency) appends one
// entry.
func instanceFromBytes(data []byte) *Instance {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := next() % 80
	shape := next()
	in := &Instance{Workers: []Worker{{ID: 0, Skills: NewSkillSet(0)}, {ID: 1, Skills: NewSkillSet(1)}}}
	if shape&8 != 0 {
		in.Workers[1].ID = 5
	}
	for i := 0; i < n; i++ {
		in.Tasks = append(in.Tasks, Task{ID: TaskID(i), Wait: 1})
	}
	if n == 0 {
		return in
	}
	if shape&1 != 0 {
		for i := 1; i < n; i++ {
			in.Tasks[i].Deps = append(in.Tasks[i].Deps, TaskID(i-1))
		}
	}
	if shape&2 != 0 {
		in.Tasks[0].Deps = append(in.Tasks[0].Deps, TaskID(n-1))
	}
	if shape&4 != 0 {
		in.Tasks[next()%n].Wait = -1
	}
	for len(data) >= 2 {
		ti := next() % n
		d := TaskID(next()%(n+2) - 1)
		in.Tasks[ti].Deps = append(in.Tasks[ti].Deps, d)
	}
	return in
}

func checkValidateAgainstOracle(t *testing.T, in *Instance) {
	t.Helper()
	got, want := in.Validate(), validateOracle(in)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("Validate = %v, oracle = %v", got, want)
	}
}

// FuzzValidate: the linear-time Validate agrees with the DepGraph-based
// oracle on arbitrary dependency structures.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{4, 0})                         // four independent tasks
	f.Add([]byte{4, 0, 1, 2, 1, 2})             // duplicate
	f.Add([]byte{4, 0, 2, 3})                   // self-edge
	f.Add([]byte{4, 0, 1, 0, 1, 5})             // unknown ID n
	f.Add([]byte{4, 0, 1, 2, 2, 3, 2, 1})       // 2-cycle t1 <-> t2
	f.Add([]byte{70, 1})                        // long chain
	f.Add([]byte{70, 3})                        // long cycle
	f.Add([]byte{70, 7, 10})                    // long cycle after a bad wait
	f.Add([]byte{6, 8, 1, 2})                   // bad worker ID
	f.Add([]byte{9, 0, 5, 3, 3, 4, 4, 5, 8, 1}) // cycle off the first root
	f.Fuzz(func(t *testing.T, data []byte) {
		checkValidateAgainstOracle(t, instanceFromBytes(data))
	})
}

// TestValidateMatchesOracleRandom runs the fuzz property over seeded random
// inputs, so plain go test covers more than the seed corpus.
func TestValidateMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 3000; k++ {
		data := make([]byte, 2+rng.Intn(40))
		rng.Read(data)
		checkValidateAgainstOracle(t, instanceFromBytes(data))
	}
}
