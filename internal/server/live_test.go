package server

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"dasc/internal/core"
	"dasc/internal/geo"
	"dasc/internal/model"
	"dasc/internal/step"
)

// reversed returns its inner allocator's pairs in reverse order. The
// Allocator interface promises no pair order, so dispatch must not rely on
// one.
type reversed struct{ core.Allocator }

func (r reversed) Assign(b *core.Batch) *model.Assignment {
	m := r.Allocator.Assign(b)
	slices.Reverse(m.Pairs)
	return m
}

// TestServerDispatchesInDependencyOrder: a task and its dependant are
// assigned in one tick, the allocator listing the dependant first. The
// dependant's service must wait for the dependency to finish (finish 201,
// not 101), and its worker must stay busy until then.
func TestServerDispatchesInDependencyOrder(t *testing.T) {
	p, err := NewPlatform(Config{Allocator: reversed{core.NewGreedy()}, ServiceTime: 100})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if _, err := p.AddWorker(model.Worker{
			Loc: geo.Pt(float64(k), 0), Wait: 1000, Velocity: 1, MaxDist: 10, Skills: model.NewSkillSet(model.Skill(k)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.AddTask(model.Task{Loc: geo.Pt(0, 0), Wait: 1000, Requires: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddTask(model.Task{Loc: geo.Pt(1, 0), Wait: 1000, Requires: 1, Deps: []model.TaskID{0}}); err != nil {
		t.Fatal(err)
	}
	out, err := p.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Assigned) != 2 || out.Assigned[0].Task != 1 {
		t.Fatalf("want both tasks assigned, dependant listed first: %v", out.Assigned)
	}
	if got := p.st.Save().Assigned; len(got) != 2 || got[0].FinishAt != 101 || got[1].FinishAt != 201 {
		t.Errorf("commits %+v, want finish times 101 and 201", got)
	}
	if got := p.st.Worker(1).BusyUntil; got != 201 {
		t.Errorf("dependant's worker busy until %v, want 201", got)
	}
}

// TestRecoveryRebuildsLiveState: a platform recovered from a mid-run
// snapshot plus the journal tail holds the same bookkeeping and the same
// live population as the one that ran incrementally, and both evolve
// identically afterwards.
func TestRecoveryRebuildsLiveState(t *testing.T) {
	dir := t.TempDir()
	jpath, spath := filepath.Join(dir, "j.jsonl"), filepath.Join(dir, "s.snap")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	live, err := NewPlatform(Config{Allocator: core.NewGreedy(), Journal: j, SnapshotPath: spath})
	if err != nil {
		t.Fatal(err)
	}
	register := func(p *Platform, k int) {
		for i := 0; i < 6; i++ {
			x := float64((k*6 + i) % 7)
			if _, err := p.AddWorker(model.Worker{Loc: geo.Pt(x, 0), Start: float64(k + i%3*4), Wait: 6, Velocity: 1, MaxDist: 20, Skills: model.NewSkillSet(0, 1)}); err != nil {
				t.Fatal(err)
			}
			task := model.Task{Loc: geo.Pt(x, 1), Start: float64(k + i%4*3), Wait: 4, Requires: model.Skill(i % 2)}
			if n := len(p.InstanceView().Tasks); i%3 == 2 && n > 0 {
				task.Deps = []model.TaskID{model.TaskID(n - 1)}
			}
			if _, err := p.AddTask(task); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := 0; k < 12; k++ {
		register(live, k)
		if _, err := live.Tick(float64(2 * k)); err != nil {
			t.Fatal(err)
		}
		if k == 5 {
			if _, err := live.SaveSnapshot(spath); err != nil {
				t.Fatal(err)
			}
		}
	}
	register(live, 12) // registrations after the last tick, some already started
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	rec, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Recover(rec, spath, jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SnapshotLoaded || rep.Replay.Entries == 0 {
		t.Fatalf("recovery did not exercise snapshot + tail: %+v", rep)
	}
	for k := 0; ; k++ {
		if a, b := fmt.Sprint(live.st.Population()), fmt.Sprint(rec.st.Population()); a != b {
			t.Fatalf("step %d: population %s, recovered %s", k, a, b)
		}
		if a, b := savedString(live.st.Save()), savedString(rec.st.Save()); a != b {
			t.Fatalf("step %d: state differs:\n%s\n%s", k, a, b)
		}
		if k == 4 {
			break
		}
		now := float64(24 + 2*k)
		o1, err1 := live.Tick(now)
		o2, err2 := rec.Tick(now)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a, b := fmt.Sprintf("%+v", *o1), fmt.Sprintf("%+v", *o2); a != b {
			t.Fatalf("tick at %v: %s, recovered %s", now, a, b)
		}
	}
}

// TestSnapshotRestoreKeepsMetric: a restored platform keeps the configured
// travel metric. Under Manhattan distance the worker cannot reach the task
// (2 > MaxDist 1.5); under the Euclidean default it could (√2).
func TestSnapshotRestoreKeepsMetric(t *testing.T) {
	cfg := Config{Allocator: core.NewGreedy(), Dist: geo.Manhattan}
	p1, _ := NewPlatform(cfg)
	if _, err := p1.AddWorker(model.Worker{Wait: 100, Velocity: 1, MaxDist: 1.5, Skills: model.NewSkillSet(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.AddTask(model.Task{Loc: geo.Pt(1, 1), Wait: 100}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p1.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	p2, _ := NewPlatform(cfg)
	if err := p2.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := p2.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Assigned) != 0 {
		t.Fatalf("restored platform assigned %v: metric reverted to Euclidean", out.Assigned)
	}
}

func savedString(sv step.Saved) string {
	return fmt.Sprintf("now=%v workers=%d tasks=%d state=%v assigned=%v botched=%v wasted=%d rogue=%d",
		sv.Now, len(sv.Workers), len(sv.Tasks), sv.State, sv.Assigned, sv.Botched, sv.Wasted, sv.Rogue)
}

// historyPlatform is a server whose retired history holds retired entities
// (half workers, half tasks, half of those tasks assigned), installed
// through the snapshot-restore path, plus live workers that stay idle and
// in range for good. Each tick call registers live fresh tasks and runs one
// tick ten time units later, so the live batch is the same size every
// tick however large the history.
type historyPlatform struct {
	p   *Platform
	now float64
	it  int
}

const historyLive = 50

func newHistoryPlatform(tb testing.TB, retired int) *historyPlatform {
	tb.Helper()
	p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		tb.Fatal(err)
	}
	const t0 = 100.0
	n := retired / 2
	sv := step.Saved{Now: t0, Workers: make([]model.Worker, n), Tasks: make([]model.Task, n), State: make([]step.WorkerState, n)}
	for i := 0; i < n; i++ {
		loc := geo.Pt(float64(i%1000), float64(i/1000%1000))
		sv.Workers[i] = model.Worker{ID: model.WorkerID(i), Loc: loc, Wait: 50, Velocity: 1, MaxDist: 10, Skills: model.NewSkillSet(0)}
		sv.Tasks[i] = model.Task{ID: model.TaskID(i), Loc: loc, Wait: 50}
		sv.State[i] = step.WorkerState{X: loc.X, Y: loc.Y}
		if i%2 == 0 {
			sv.Assigned = append(sv.Assigned, step.Commit{Worker: model.WorkerID(i), Task: model.TaskID(i), FinishAt: 1})
		}
	}
	p.mu.Lock()
	p.st.Restore(sv)
	p.publishViewLocked()
	p.mu.Unlock()

	for i := 0; i < historyLive; i++ {
		if _, err := p.AddWorker(model.Worker{Loc: geo.Pt(float64(i), 0), Start: t0, Wait: 1e9, Velocity: 1, MaxDist: 1e9, Skills: model.NewSkillSet(0)}); err != nil {
			tb.Fatal(err)
		}
	}
	return &historyPlatform{p: p, now: t0}
}

// register adds the next tick's fresh tasks.
func (h *historyPlatform) register(tb testing.TB) {
	h.now += 10
	for i := 0; i < historyLive; i++ {
		if _, err := h.p.AddTask(model.Task{Loc: geo.Pt(float64((i*7+h.it)%historyLive), 1), Start: h.now, Wait: 3}); err != nil {
			tb.Fatal(err)
		}
	}
	h.it++
}

func (h *historyPlatform) tick(tb testing.TB) {
	if _, err := h.p.Tick(h.now); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkTickRetiredHistory holds the live batch at ~50 workers × 50
// tasks while the retired history behind it grows from 0 to 1M entities:
// with the live-state step the tick cost must not follow the history. Each
// iteration registers 50 fresh tasks (untimed) and times one tick. Run with
// a fixed -benchtime such as 200x: every iteration adds 50 tasks to the
// history.
func BenchmarkTickRetiredHistory(b *testing.B) {
	for _, retired := range []int{0, 20_000, 200_000, 1_000_000} {
		b.Run(fmt.Sprintf("retired=%d", retired), func(b *testing.B) {
			h := newHistoryPlatform(b, retired)
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				b.StopTimer()
				h.register(b)
				b.StartTimer()
				h.tick(b)
			}
			b.StopTimer()
			lw, lt, rw, rt := h.p.st.Population()
			b.ReportMetric(float64(lw), "live_workers")
			b.ReportMetric(float64(lt), "live_tasks")
			b.ReportMetric(float64(rw+rt), "retired")
		})
	}
}

// TestTickAllocationIndependentOfHistory pins the O(live) tick budget: the
// bytes a tick allocates (runtime.MemStats.TotalAlloc around Tick alone)
// over a fixed live batch must not grow with the retired history, the
// first tick after the restore included. A tick that sized anything by the
// registry, such as task-ID lookups built per batch or a spatial grid keyed
// by task ID, allocates ~1 MB or more extra at 200K retired entities.
func TestTickAllocationIndependentOfHistory(t *testing.T) {
	perTick := func(retired int) uint64 {
		h := newHistoryPlatform(t, retired)
		var before, after runtime.MemStats
		var total uint64
		const ticks = 25
		for k := 0; k < ticks; k++ {
			h.register(t)
			runtime.ReadMemStats(&before)
			h.tick(t)
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
		return total / ticks
	}
	small, large := perTick(0), perTick(200_000)
	// Map layouts and slice growth differ a little between runs; history
	// proportional allocation would exceed this by orders of magnitude.
	if bound := small + small/10 + 8<<10; large > bound {
		t.Errorf("tick allocates %d B at 200K retired entities, %d B at none (bound %d B)", large, small, bound)
	}
	t.Logf("per-tick allocation: %d B at 0 retired, %d B at 200K", small, large)
}
