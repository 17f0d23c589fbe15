package step_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"dasc/internal/core"
	"dasc/internal/gen"
	"dasc/internal/model"
	"dasc/internal/obs"
	"dasc/internal/server"
	"dasc/internal/sim"
	"dasc/internal/step"
)

var lockstepSeeds = []int64{1, 2, 3}

const (
	lockstepInterval = 2.0
	lockstepService  = 0.5
)

// lockstepInstance is a small synthetic instance with dependencies, short
// windows (so entities retire mid-run) and unsorted worker starts (so late
// arrivals merge into the middle of the live worker list).
func lockstepInstance(t *testing.T, seed int64) *model.Instance {
	t.Helper()
	c := gen.SmallScale()
	c.Seed = seed
	c.Workers, c.Tasks, c.SkillUniverse = 40, 120, 6
	c.DepSize = gen.R(0, 3)
	c.StartTime = gen.R(0, 40)
	c.WaitTime = gen.R(4, 12)
	c.Velocity = gen.R(0.05, 0.1)
	c.MaxDist = gen.R(0.5, 1)
	in, err := gen.Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	in.CloseDeps()
	return in
}

func lockstepConfig(t *testing.T, name string, seed int64, disableReuse bool) step.Config {
	t.Helper()
	alloc, err := core.NewByName(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return step.Config{
		Allocator:     alloc,
		EngineOptions: step.EngineOptions{VerifyEngineCache: true, VerifyGameWorklist: true},
		ServiceTime:   lockstepService,
		DisableReuse:  disableReuse,
		CollectDelays: true,
	}
}

func pairsOf(a *model.Assignment) []model.Pair {
	if a == nil {
		return nil
	}
	return a.Pairs
}

func sameOutcome(got, want step.Outcome) error {
	if got.Workers != want.Workers || got.Tasks != want.Tasks || got.Rogue != want.Rogue {
		return fmt.Errorf("population/rogue %d×%d/%d, oracle %d×%d/%d",
			got.Workers, got.Tasks, got.Rogue, want.Workers, want.Tasks, want.Rogue)
	}
	if (got.Valid == nil) != (want.Valid == nil) {
		return fmt.Errorf("batch ran: %v, oracle %v", got.Valid != nil, want.Valid != nil)
	}
	if !slices.Equal(pairsOf(got.Raw), pairsOf(want.Raw)) || !slices.Equal(pairsOf(got.Valid), pairsOf(want.Valid)) {
		return fmt.Errorf("pairs raw %v valid %v, oracle raw %v valid %v",
			pairsOf(got.Raw), pairsOf(want.Raw), pairsOf(got.Valid), pairsOf(want.Valid))
	}
	return nil
}

// TestStepMatchesFullScanOracle runs the live-state step and the full-scan
// oracle in lockstep over a seed matrix × every allocator, in both driving
// regimes: everything registered up front (the simulator) and registrations
// streamed in between ticks, some with future starts and some already
// expired (the server). Every batch must match bit for bit, the live sets
// must hold exactly the live entities after every tick, and a restore from
// the saved state must rebuild the same live sets.
func TestStepMatchesFullScanOracle(t *testing.T) {
	for _, seed := range lockstepSeeds {
		in := lockstepInstance(t, seed)
		for _, name := range core.AllNames() {
			for _, streamed := range []bool{false, true} {
				disableReuse := seed == 2
				t.Run(fmt.Sprintf("seed%d/%s/streamed=%v", seed, name, streamed), func(t *testing.T) {
					cfg := lockstepConfig(t, name, seed, disableReuse)
					var s *step.Step
					var o *step.Oracle
					if streamed {
						s = step.New(cfg, &model.Instance{Dist: in.Dist}, 0)
						o = step.NewOracle(lockstepConfig(t, name, seed, disableReuse), &model.Instance{Dist: in.Dist})
					} else {
						s = step.New(cfg, in, math.Inf(-1))
						o = step.NewOracle(lockstepConfig(t, name, seed, disableReuse), in)
					}
					nw, nt, ran := 0, 0, 0
					for k := 0; k < 30; k++ {
						now := float64(k) * lockstepInterval
						if streamed {
							// Workers register in ID order regardless of
							// start; tasks a few time units ahead of theirs.
							for ; nw < len(in.Workers) && nw < (k+1)*len(in.Workers)/20; nw++ {
								s.AddWorkers(in.Workers[nw])
								o.AddWorkers(in.Workers[nw])
							}
							for ; nt < len(in.Tasks) && in.Tasks[nt].Start < now+5; nt++ {
								s.AddTasks(in.Tasks[nt])
								o.AddTasks(in.Tasks[nt])
							}
						}
						var rec *obs.BatchRec
						if k%2 == 0 {
							rec = obs.NewBatchRec(k, now)
						}
						got, err := s.Tick(now, rec)
						if err != nil {
							t.Fatalf("tick %d: %v", k, err)
						}
						want, err := o.Tick(now)
						if err != nil {
							t.Fatalf("oracle tick %d: %v", k, err)
						}
						if err := sameOutcome(got, want); err != nil {
							t.Fatalf("tick %d: %v", k, err)
						}
						if err := s.Diff(o); err != nil {
							t.Fatalf("tick %d: %v", k, err)
						}
						if err := s.CheckLive(); err != nil {
							t.Fatalf("tick %d: %v", k, err)
						}
						if rec != nil {
							tr := rec.Finish()
							lw, lt, rw, rt := s.Population()
							if phases := tr.CollectMS + tr.IndexBuildMS + tr.AllocMS + tr.DispatchMS; phases > tr.TickMS+1e-6 ||
								tr.LiveWorkers != lw || tr.LiveTasks != lt || tr.RetiredWorkers != rw || tr.RetiredTasks != rt {
								t.Fatalf("tick %d: trace %+v: phases %v ms of a %v ms step, population %d %d %d %d",
									k, tr, phases, tr.TickMS, lw, lt, rw, rt)
							}
						}
						if got.Valid != nil {
							ran++
						}
						if k%5 == 4 {
							r := step.New(lockstepConfig(t, name, seed, disableReuse), &model.Instance{Dist: in.Dist}, 0)
							r.Restore(s.Save())
							if err := r.SameLive(s); err != nil {
								t.Fatalf("tick %d: restored live sets differ: %v", k, err)
							}
							rt, st := r.Totals(), s.Totals()
							rt.Delays, st.Delays = nil, nil
							if !reflect.DeepEqual(rt, st) {
								t.Fatalf("tick %d: restored totals %+v, want %+v", k, rt, st)
							}
						}
					}
					if ran == 0 || s.Totals().Assigned == 0 {
						t.Fatalf("degenerate run: %d batches, %d assigned", ran, s.Totals().Assigned)
					}
				})
			}
		}
	}
}

// simGrid is sim.Platform.Run's batch grid for in.
func simGrid(in *model.Instance, interval float64) []float64 {
	horizon, start := 0.0, math.Inf(1)
	for i := range in.Workers {
		horizon = math.Max(horizon, in.Workers[i].Expiry())
		start = math.Min(start, in.Workers[i].Start)
	}
	for i := range in.Tasks {
		horizon = math.Max(horizon, in.Tasks[i].Deadline())
		start = math.Min(start, in.Tasks[i].Start)
	}
	var grid []float64
	for b := 0; b < int((horizon-start)/interval)+2; b++ {
		now := start + float64(b)*interval
		grid = append(grid, now)
		if now >= horizon {
			break
		}
	}
	return grid
}

// TestSimMatchesFullScanOracle checks sim.Platform.Run, engine verifiers
// on, against the oracle driven over the same batch grid: every batch
// result and every aggregate must be identical.
func TestSimMatchesFullScanOracle(t *testing.T) {
	for _, seed := range lockstepSeeds {
		in := lockstepInstance(t, seed)
		for _, name := range core.AllNames() {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				cfg := lockstepConfig(t, name, seed, false)
				var batches []sim.BatchResult
				p, err := sim.New(in, sim.Config{
					Allocator: cfg.Allocator, BatchInterval: lockstepInterval, ServiceTime: lockstepService,
					CollectDelays: true, EngineOptions: cfg.EngineOptions,
					OnBatch: func(br sim.BatchResult) { batches = append(batches, br) },
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.Run()
				if err != nil {
					t.Fatal(err)
				}
				o := step.NewOracle(lockstepConfig(t, name, seed, false), in)
				var want []sim.BatchResult
				grid := simGrid(in, lockstepInterval)
				for k, now := range grid {
					out, err := o.Tick(now)
					if err != nil {
						t.Fatal(err)
					}
					if out.Valid != nil {
						want = append(want, sim.BatchResult{Index: k, Time: now, Workers: out.Workers, Tasks: out.Tasks, Assignment: out.Valid})
					}
				}
				if len(batches) != len(want) || res.Batches != len(grid) {
					t.Fatalf("%d batches over %d grid points, oracle %d over %d", len(batches), res.Batches, len(want), len(grid))
				}
				for i, br := range batches {
					w := want[i]
					if br.Index != w.Index || br.Time != w.Time || br.Workers != w.Workers || br.Tasks != w.Tasks ||
						!slices.Equal(br.Assignment.Pairs, w.Assignment.Pairs) {
						t.Fatalf("batch %d: %+v, oracle %+v", i, br, w)
					}
				}
				tot := o.Totals
				delay := math.NaN()
				if tot.DelayCount > 0 {
					delay = tot.DelaySum / float64(tot.DelayCount)
				}
				wa := map[model.WorkerID]int{}
				for i, st := range o.WS {
					if st.Done > 0 {
						wa[model.WorkerID(i)] = st.Done
					}
				}
				bits := math.Float64bits
				if res.AssignedPairs != tot.Assigned || res.WastedPairs != tot.Wasted || res.RoguePairs != tot.Rogue ||
					res.CompletedTasks != tot.Completed ||
					res.ExpiredTasks != len(in.Tasks)-len(o.Assigned)-len(o.Botched) ||
					bits(res.TotalTravel) != bits(tot.Travel) || bits(res.WorkerBusyTime) != bits(tot.BusyTime) ||
					bits(res.AssignedWeight) != bits(tot.Weight) || bits(res.MeanStartDelay) != bits(delay) ||
					!slices.Equal(res.Delays, tot.Delays) || !reflect.DeepEqual(res.WorkerAssignments, wa) {
					t.Fatalf("result %+v differs from oracle totals %+v", res, tot)
				}
			})
		}
	}
}

// registerAll registers the given entities on p, requiring the server to
// hand out their instance IDs.
func registerAll(t *testing.T, p *server.Platform, ws []model.Worker, ts []model.Task) {
	t.Helper()
	for _, w := range ws {
		id, err := p.AddWorker(w)
		if err != nil || id != w.ID {
			t.Fatalf("AddWorker w%d: id %d, %v", w.ID, id, err)
		}
	}
	for _, task := range ts {
		id, err := p.AddTask(task)
		if err != nil || id != task.ID {
			t.Fatalf("AddTask t%d: id %d, %v", task.ID, id, err)
		}
	}
}

// TestServerMatchesFullScanOracle streams registrations into a server and
// the oracle between ticks: every BatchOutcome, the assignment view and
// the stats must match the full-scan step.
func TestServerMatchesFullScanOracle(t *testing.T) {
	for _, seed := range lockstepSeeds {
		in := lockstepInstance(t, seed)
		for _, name := range core.AllNames() {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				cfg := lockstepConfig(t, name, seed, false)
				p, err := server.NewPlatform(server.Config{
					Allocator: cfg.Allocator, ServiceTime: lockstepService, EngineOptions: cfg.EngineOptions,
				})
				if err != nil {
					t.Fatal(err)
				}
				o := step.NewOracle(lockstepConfig(t, name, seed, false), &model.Instance{})
				nw, nt := 0, 0
				for k := 0; k < 30; k++ {
					now := float64(k) * lockstepInterval
					w0, t0 := nw, nt
					for ; nw < len(in.Workers) && nw < (k+1)*len(in.Workers)/20; nw++ {
					}
					for ; nt < len(in.Tasks) && in.Tasks[nt].Start < now+5; nt++ {
					}
					registerAll(t, p, in.Workers[w0:nw], in.Tasks[t0:nt])
					reg := p.InstanceView()
					o.AddWorkers(reg.Workers[w0:nw]...)
					o.AddTasks(reg.Tasks[t0:nt]...)

					got, err := p.Tick(now)
					if err != nil {
						t.Fatalf("tick %d: %v", k, err)
					}
					want, err := o.Tick(now)
					if err != nil {
						t.Fatal(err)
					}
					wasted := 0
					wantAssigned := []model.Pair{}
					if want.Valid != nil {
						wasted = want.Raw.Size() - want.Valid.Size()
						wantAssigned = want.Valid.Pairs
					}
					if got.Workers != want.Workers || got.Tasks != want.Tasks || got.Rogue != want.Rogue ||
						got.Wasted != wasted || !reflect.DeepEqual(got.Assigned, wantAssigned) {
						t.Fatalf("tick %d: outcome %+v, oracle %+v", k, got, want)
					}
					if view := p.AssignmentsView().Pairs; !slices.Equal(view, o.SortedAssigned()) {
						t.Fatalf("tick %d: assignment view %v, oracle %v", k, view, o.SortedAssigned())
					}
					st := p.StatsView()
					if st.AssignedTasks != len(o.Assigned) || st.WastedPairs != o.Totals.Wasted || st.RoguePairs != o.Totals.Rogue {
						t.Fatalf("tick %d: stats %+v, oracle totals %+v", k, st, o.Totals)
					}
				}
				if len(o.Assigned) == 0 {
					t.Fatal("degenerate run: nothing assigned")
				}
			})
		}
	}
}

// TestSimAndServerAgree feeds the simulator and the server the same event
// stream — every entity registered before the first batch, batches on the
// simulator's grid — and requires identical per-batch outcomes.
func TestSimAndServerAgree(t *testing.T) {
	for _, seed := range lockstepSeeds {
		in := lockstepInstance(t, seed)
		for _, name := range core.AllNames() {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				simAlloc, _ := core.NewByName(name, seed)
				byTime := map[float64]sim.BatchResult{}
				p, err := sim.New(in, sim.Config{
					Allocator: simAlloc, BatchInterval: lockstepInterval, ServiceTime: lockstepService,
					OnBatch: func(br sim.BatchResult) { byTime[br.Time] = br },
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.Run()
				if err != nil {
					t.Fatal(err)
				}
				srvAlloc, _ := core.NewByName(name, seed)
				srv, err := server.NewPlatform(server.Config{Allocator: srvAlloc, ServiceTime: lockstepService})
				if err != nil {
					t.Fatal(err)
				}
				registerAll(t, srv, in.Workers, in.Tasks)
				for _, now := range simGrid(in, lockstepInterval) {
					out, err := srv.Tick(now)
					if err != nil {
						t.Fatal(err)
					}
					br, ran := byTime[now]
					if !ran {
						if out.Workers > 0 && out.Tasks > 0 {
							t.Fatalf("t=%v: server ran a %d×%d batch the simulator skipped", now, out.Workers, out.Tasks)
						}
						continue
					}
					if out.Workers != br.Workers || out.Tasks != br.Tasks || !slices.Equal(out.Assigned, br.Assignment.Pairs) {
						t.Fatalf("t=%v: server %d×%d %v, simulator %d×%d %v", now,
							out.Workers, out.Tasks, out.Assigned, br.Workers, br.Tasks, br.Assignment.Pairs)
					}
				}
				meanDelay := res.MeanStartDelay
				if math.IsNaN(meanDelay) {
					meanDelay = 0 // the server reports 0 before any task completes
				}
				if st := srv.StatsView(); st.AssignedTasks != res.AssignedPairs || st.WastedPairs != res.WastedPairs ||
					st.ExpiredTasks != res.ExpiredTasks || st.Travel != res.TotalTravel || st.MeanStartDelay != meanDelay {
					t.Fatalf("server stats %+v, simulator result %+v", st, res)
				}
			})
		}
	}
}
