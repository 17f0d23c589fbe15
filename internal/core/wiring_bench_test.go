package core

import (
	"math/rand"
	"testing"

	"dasc/internal/gen"
	"dasc/internal/model"
)

// midRunFig10Batch builds a batch as the simulator meets it half-way
// through fig10's largest sweep point (5K workers × 8K tasks, Table V
// defaults): at time 40 the pending tasks are those in their window, and
// of the tasks that started earlier about half were assigned (satisfied),
// so a dependency list mixes satisfied, pending and absent entries.
func midRunFig10Batch(tb testing.TB) *Batch {
	tb.Helper()
	c := gen.DefaultSynthetic()
	c.Tasks = 8000
	in, err := gen.Synthetic(c)
	if err != nil {
		tb.Fatal(err)
	}
	const now = 40.0
	rng := rand.New(rand.NewSource(1))
	var tasks []*model.Task
	satisfied := map[model.TaskID]bool{}
	for i := range in.Tasks {
		t := &in.Tasks[i]
		switch {
		case t.Start > now:
		case rng.Intn(2) == 0:
			satisfied[t.ID] = true
		case t.Deadline() >= now:
			tasks = append(tasks, t)
		}
	}
	return NewBatch(in, NewStaticBatch(in).Workers, tasks, satisfied)
}

// BenchmarkBuildGameWiring times the game's per-batch dependency wiring on
// a mid-run fig10 batch:
//
//	go test ./internal/core -run '^$' -bench BuildGameWiring -benchmem
func BenchmarkBuildGameWiring(b *testing.B) {
	batch := midRunFig10Batch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkWiring = buildGameWiring(batch)
	}
	b.ReportMetric(float64(len(batch.Tasks)), "tasks")
}

var sinkWiring *gameWiring
