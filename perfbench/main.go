// Command perfbench is the repository's benchmark of record. It runs one
// named workload with a seed for a fixed number of seconds, checks the
// program's outputs, and prints one JSON result as the last line of standard
// output:
//
//	perfbench --workload sim-meetup --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// separate traced run carries the per-layer metrics. BENCHMARK.json at the
// repository root declares both sets; README.md in this directory explains
// each metric, the workloads and the layer → end-to-end mapping.
//
// The sim workloads run the paper's sweeps in process through sim.New and
// Platform.Run. The server workload drives a dasc-server binary built from
// the same checkout (-server) over loopback. Normally the benchmark is
// started through run.sh, which builds both binaries first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// Options is one benchmark invocation.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Scale shrinks every workload's inputs (0 < Scale ≤ 1). The command
	// always runs at 1; only the package's tests run tiny scales.
	Scale float64
	// Server is the dasc-server binary (server workload only).
	Server string
	// TmpDir holds the server workload's journals and logs.
	TmpDir string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, "perfbench: "+format+"\n", args...)
	}
}

// Result is the benchmark's output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(Options) (*Result, error){
	"sim-synthetic": runSim,
	"sim-meetup":    runSim,
	"server-mixed":  runServer,
}

func main() {
	var o Options
	flag.StringVar(&o.Workload, "workload", "", "workload name: sim-synthetic, sim-meetup or server-mixed")
	flag.Int64Var(&o.Seed, "seed", 1, "input seed")
	flag.Float64Var(&o.Seconds, "seconds", 20, "measured duration in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	flag.StringVar(&o.Server, "server", "", "dasc-server binary (server-mixed)")
	flag.StringVar(&o.TmpDir, "tmp", "", "scratch directory for journals and logs (default: the system temp dir)")
	flag.Parse()
	o.Trace = *trace == 1
	o.Scale = 1
	o.Log = os.Stderr
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	res, err := Run(o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// Run executes one workload and returns its result, holding exactly the
// metrics BENCHMARK.json declares for the mode.
func Run(o Options) (*Result, error) {
	run, ok := workloads[o.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if o.Scale <= 0 || o.Scale > 1 {
		return nil, fmt.Errorf("scale must be in (0, 1], got %v", o.Scale)
	}
	return run(o)
}

// metricSet accumulates one run's metrics and renders exactly the declared
// set for the mode, failing on a missing or undeclared name.
type metricSet map[string]float64

func (m metricSet) result(trace, correct bool, attempted, failed int) (*Result, error) {
	decls := endToEnd
	if trace {
		decls = perLayer
	}
	out := make(map[string]Metric, len(decls))
	for _, d := range decls {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared for this mode", name)
		}
	}
	if attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return &Result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: out}, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. Zero for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(i)
	return xs[i] + frac*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
