package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Decl declares one metric. BENCHMARK.json at the repository root repeats
// these names and units (with directions and bounds); the package's tests
// hold the two in agreement.
type Decl struct {
	Name string
	Unit string
}

// endToEnd are the metrics every workload reports with --trace 0. Each one
// has a meaning on every workload; README.md gives it per workload.
var endToEnd = []Decl{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"tick_p50_ms", "ms"},
	{"tick_p90_ms", "ms"},
	{"cpu_s", "s"},
	{"rss_peak_mb", "MiB"},
	{"assigned_pairs", "pairs"},
}

// perLayer are the metrics every workload reports with --trace 1. A layer a
// workload never enters reports 0 (README.md lists which).
var perLayer = []Decl{
	{"gen.generate_s", "s"},
	{"model.validate_s", "s"},
	{"core.index_s", "s"},
	{"core.alloc_s", "s"},
	{"core.assign_s", "s"},
	{"core.assign_s.gg", "s"},
	{"core.assign_s.game", "s"},
	{"core.assign_s.game5", "s"},
	{"core.assign_s.greedy", "s"},
	{"core.assign_s.closest", "s"},
	{"core.assign_s.random", "s"},
	{"core.fixpoint_s", "s"},
	{"step.dispatch_s", "s"},
	{"step.other_s", "s"},
	{"step.count", "count"},
	{"trace.wall_s", "s"},
	{"trace.unattributed_s", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"tick.index_ms", "ms"},
	{"tick.alloc_ms", "ms"},
	{"tick.dispatch_ms", "ms"},
	{"tick.other_ms", "ms"},
	{"tick.live_workers", "count"},
	{"tick.live_tasks", "count"},
	{"core.workers_revalidated", "count"},
	{"core.workers_rebuilt", "count"},
	{"core.memo_hit_ratio", "ratio"},
	{"core.admit_ratio", "ratio"},
	{"core.candidates_admitted", "count"},
	{"core.arena_alloc_bytes", "bytes"},
	{"core.game_evaluated", "count"},
	{"core.game_skip_ratio", "ratio"},
	{"core.game_rounds", "count"},
	{"core.deferred_ratio", "ratio"},
	{"register_p50_ms", "ms"},
	{"register_p99_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"error_ratio", "ratio"},
	{"server.history_entities", "count"},
	{"server.listen_s", "s"},
	{"server.recovery_s", "s"},
	{"ingest.drains", "count"},
	{"ingest.entries_per_drain", "count"},
	{"ingest.commit_s", "s"},
	{"ingest.journal_s", "s"},
	{"ingest.wait_ms", "ms"},
	{"journal.appends", "count"},
	{"journal.bytes", "bytes"},
	{"journal.fsyncs", "count"},
	{"runtime.alloc_bytes", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.cpu_s", "s"},
	{"loadgen.read_queued_ratio", "ratio"},
	{"loadgen.ops", "count"},
}

// serverOnly are the per-layer metrics of layers only the server workload
// enters; the sim workloads report them as 0.
var serverOnly = []string{
	"register_p50_ms", "register_p99_ms", "read_p50_ms", "read_p99_ms", "error_ratio",
	"server.history_entities", "server.listen_s", "server.recovery_s",
	"ingest.drains", "ingest.entries_per_drain", "ingest.commit_s", "ingest.journal_s", "ingest.wait_ms",
	"journal.appends", "journal.bytes", "journal.fsyncs",
	"loadgen.late_p99_ms", "loadgen.cpu_s", "loadgen.read_queued_ratio", "loadgen.ops",
}

// simOnly are the per-layer metrics only an in-process sim.Platform can
// measure (a wrapper around Allocator.Assign, the time inside sim.New, the
// Run remainder, Go heap allocation); the server workload reports them as 0.
var simOnly = []string{
	"model.validate_s", "core.assign_s", "core.assign_s.gg", "core.assign_s.game",
	"core.assign_s.game5", "core.assign_s.greedy", "core.assign_s.closest",
	"core.assign_s.random", "core.fixpoint_s", "step.other_s", "runtime.alloc_bytes",
}

func zero(m metricSet, names []string) {
	for _, n := range names {
		m[n] = 0
	}
}

// selfCPU returns the CPU time (user + system) this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// fixed at 100 by the Linux ABI).
const clockTick = 10 * time.Millisecond

// procCPU returns the CPU time (user + system) process pid has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; the fields after its
	// closing parenthesis are fixed: utime and stime are 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS returns the peak resident set (VmHWM) of process pid, in MiB.
func peakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if kb, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(kb), " kB"), 64)
			return v / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// rssSampler records the peak resident set of this process while it runs,
// sampling /proc/self/statm: VmHWM would include the set-up and the
// verification pass, which share the process with the timed passes.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	page := float64(os.Getpagesize())
	go func() {
		peak := 0.0
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		sample := func() {
			b, err := os.ReadFile("/proc/self/statm")
			if err != nil {
				return
			}
			f := strings.Fields(string(b))
			if len(f) < 2 {
				return
			}
			pages, err := strconv.ParseFloat(f[1], 64)
			if err == nil && pages*page/(1<<20) > peak {
				peak = pages * page / (1 << 20)
			}
		}
		for {
			sample()
			select {
			case <-s.stop:
				sample()
				s.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak in MiB.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	return <-s.done
}
