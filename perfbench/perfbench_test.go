package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"dasc/internal/core"
	"dasc/internal/dataset"
	"dasc/internal/server"
)

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// declaredUnits returns BENCHMARK.json's metrics for a mode, name → unit.
func declaredUnits(doc benchmarkJSON, trace bool) map[string]string {
	out := map[string]string{}
	if trace {
		for _, m := range doc.PerLayer {
			out[m.Name] = m.Unit
		}
	} else {
		for _, m := range doc.EndToEnd {
			out[m.Name] = m.Unit
		}
	}
	return out
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	for _, trace := range []bool{false, true} {
		decls := endToEnd
		if trace {
			decls = perLayer
		}
		want := declaredUnits(doc, trace)
		if len(want) != len(decls) {
			t.Errorf("trace=%v: BENCHMARK.json declares %d metrics, the benchmark %d", trace, len(want), len(decls))
		}
		for _, d := range decls {
			if u, ok := want[d.Name]; !ok || u != d.Unit {
				t.Errorf("trace=%v: %s [%s] is not declared as such in BENCHMARK.json (unit %q)", trace, d.Name, d.Unit, u)
			}
		}
	}
	for _, names := range [][]string{serverOnly, simOnly} {
		for _, n := range names {
			if _, ok := declaredUnits(doc, true)[n]; !ok {
				t.Errorf("%s is not a declared per-layer metric", n)
			}
		}
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
}

// checkResult asserts a run passed its output checks, printed exactly the
// metrics BENCHMARK.json declares for the mode, and, when traced, that no
// layer or remainder is negative and that together they add up to the
// traced wall time. On the sim workloads the remainder is only the
// benchmark's loop around the cells, so it must also be a small share: a
// layer it swallowed would show there.
func checkResult(t *testing.T, doc benchmarkJSON, res *Result, trace, sim bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	want := declaredUnits(doc, trace)
	for name, m := range res.Metrics {
		if u, ok := want[name]; !ok || u != m.Unit {
			t.Errorf("printed metric %s [%s] is not declared in BENCHMARK.json", name, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	v := func(n string) float64 { return res.Metrics[n].Value }
	if !trace {
		for _, n := range []string{"setup_s", "run_s", "tick_p50_ms", "cpu_s", "rss_peak_mb"} {
			if v(n) <= 0 {
				t.Errorf("%s = %v, want > 0", n, v(n))
			}
		}
		return
	}
	for name, m := range res.Metrics {
		if name != "trace.overhead_ratio" && m.Value < 0 {
			t.Errorf("%s = %v, want ≥ 0", name, m.Value)
		}
	}
	if share := v("trace.unattributed_s") / v("trace.wall_s"); sim && share > maxSimRemainder {
		t.Errorf("trace.unattributed_s is %.1f%% of trace.wall_s, want at most %.1f%%", 100*share, 100*maxSimRemainder)
	}
	layers := v("model.validate_s") + v("core.index_s") + v("core.alloc_s") +
		v("step.dispatch_s") + v("step.other_s") + v("trace.unattributed_s")
	if wall := v("trace.wall_s"); wall <= 0 || math.Abs(layers-wall) > 1e-9*math.Max(1, wall) {
		t.Errorf("layers + remainder = %v s, traced wall time %v s", layers, wall)
	}
	if split := v("core.assign_s") + v("core.fixpoint_s"); v("core.assign_s") > 0 && math.Abs(split-v("core.alloc_s")) > 1e-9 {
		t.Errorf("assign + fixpoint = %v s, alloc %v s", split, v("core.alloc_s"))
	}
}

// maxSimRemainder bounds the share of a traced sim pass that falls outside
// sim.New and Run.
const maxSimRemainder = 0.015

func TestSimSmoke(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	for _, wl := range []string{"sim-synthetic", "sim-meetup"} {
		for _, trace := range []bool{false, true} {
			res, err := Run(Options{Workload: wl, Seed: 3, Seconds: 0.01, Scale: 0.1, Trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			checkResult(t, doc, res, trace, true)
			if trace && res.Metrics["core.assign_s"].Value <= 0 {
				t.Errorf("%s: no time measured inside Allocator.Assign", wl)
			}
		}
	}
}

func TestSimCheckCatchesPerturbation(t *testing.T) {
	points, err := genPoints("sim-meetup", 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := runPass(points, 5, verifyPass, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runPass(points, 5, plainPass, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := mismatches(want, got); n != 0 {
		t.Fatalf("an untraced pass differs from the verification pass in %d cells", n)
	}
	perturb := []func(*cellOut){
		func(c *cellOut) { c.Assigned++ },
		func(c *cellOut) { c.Wasted++ },
		func(c *cellOut) { c.Expired++ },
		func(c *cellOut) { c.Travel = math.Nextafter(c.Travel, math.Inf(1)) },
	}
	for i, f := range perturb {
		bad := append([]cellOut(nil), want...)
		f(&bad[len(bad)/2])
		if n := mismatches(bad, got); n != 1 {
			t.Errorf("perturbation %d: %d mismatching cells, want 1", i, n)
		}
	}
}

// buildServer builds dasc-server from the enclosing checkout.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dasc-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dasc-server")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building dasc-server: %v\n%s", err, out)
	}
	return bin
}

func TestServerSmoke(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	bin := buildServer(t)
	for _, trace := range []bool{false, true} {
		res, err := Run(Options{Workload: "server-mixed", Seed: 3, Seconds: 1, Scale: 0.05, Trace: trace, Server: bin, TmpDir: t.TempDir()})
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		checkResult(t, doc, res, trace, false)
		if trace && res.Metrics["server.history_entities"].Value <= 0 {
			t.Error("no history reported")
		}
	}
}

func TestServerCheckCatchesPerturbation(t *testing.T) {
	pool, err := genPool(40, 9)
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	if _, err := writePreload(journal, pool, 8, 5); err != nil {
		t.Fatal(err)
	}
	// What a server recovering the same journal serves.
	p, err := server.NewPlatform(server.Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recover(p, "", journal); err != nil {
		t.Fatal(err)
	}
	var inst, asg bytes.Buffer
	if err := dataset.Write(&inst, p.InstanceView()); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteAssignment(&asg, p.AssignmentsView()); err != nil {
		t.Fatal(err)
	}
	if p.AssignmentsView().Size() == 0 {
		t.Fatal("the preload assigned nothing; the check would compare empty assignments")
	}
	if err := verifyRecovered(journal, inst.Bytes(), asg.Bytes()); err != nil {
		t.Fatalf("unperturbed: %v", err)
	}
	flip := func(b []byte) []byte {
		c := append([]byte(nil), b...)
		i := bytes.LastIndexAny(c, "123456789")
		c[i] = '0'
		return c
	}
	if err := verifyRecovered(journal, flip(inst.Bytes()), asg.Bytes()); err == nil {
		t.Error("a perturbed served instance passed the check")
	}
	if err := verifyRecovered(journal, inst.Bytes(), flip(asg.Bytes())); err == nil {
		t.Error("perturbed served assignments passed the check")
	}
}
