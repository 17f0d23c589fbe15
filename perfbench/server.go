package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"dasc/internal/core"
	"dasc/internal/dataset"
	"dasc/internal/gen"
	"dasc/internal/model"
	"dasc/internal/obs"
	"dasc/internal/server"
)

// The server workload's shape at scale 1. Each tick window registers
// perWindow workers and perWindow tasks stamped with the logical time of the
// window's start; their Table V waits of 10–15 units retire them within two
// or three ticks of interval 5, so the live batch stays under two hundred per
// side while the retired history grows.
const (
	perWindow      = 70                     // workers, and tasks, registered per tick window
	preloadTicks   = 500                    // tick windows of retired history written before the sessions
	tickInterval   = 5.0                    // logical time per tick (dasc-server's default interval)
	tickPeriod     = 100 * time.Millisecond // wall time between ticks in a session
	readsPerSec    = 100                    // GET /v1/stats rate
	depFraction    = 0.3                    // tasks that depend on one recent task
	depWindow      = 200                    // how far back that task may lie
	serverSessions = 2                      // servers driven through the schedule, one after another
	serverStarts   = 3                      // set-ups timed for setup_s, the sessions' included
	requestTimeout = 5 * time.Second        // a request slower than this failed
	tracedBlock    = 7                      // ticks per traced/untraced block in the traced run
)

// entityPool is the pre-generated stream of registrations: worker i and
// task i belong to tick window i / perWindow.
type entityPool struct {
	workers []model.Worker
	tasks   []model.Task
	// depBack[i] > 0 makes task i depend on the task registered depBack[i]
	// tasks before it.
	depBack []int
}

// genPool draws n workers and n tasks from the Table V generator (locations,
// skills, velocities, budgets, waits); the benchmark stamps their start
// times and dependencies itself.
func genPool(n int, seed int64) (*entityPool, error) {
	c := gen.DefaultSynthetic()
	c.Seed, c.Workers, c.Tasks = seed, n, n
	c.DepSize = gen.R(0, 0)
	in, err := gen.Synthetic(c)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x10adbe7c))
	p := &entityPool{workers: in.Workers, tasks: in.Tasks, depBack: make([]int, n)}
	for i := range p.depBack {
		if rng.Float64() < depFraction {
			p.depBack[i] = 1 + rng.Intn(depWindow)
		}
	}
	return p, nil
}

// worker returns pool worker i stamped to start at the beginning of its
// tick window (window w starts at logical time w·tickInterval).
func (p *entityPool) worker(i, per int) model.Worker {
	w := p.workers[i]
	w.ID = 0
	w.Start = float64(i/per) * tickInterval
	return w
}

// task returns pool task i stamped like worker, with its dependency resolved
// against the IDs of the tasks registered so far.
func (p *entityPool) task(i, per int, registered []model.TaskID) model.Task {
	t := p.tasks[i]
	t.ID, t.Deps = 0, nil
	t.Start = float64(i/per) * tickInterval
	if back := p.depBack[i]; back > 0 && back <= len(registered) {
		t.Deps = []model.TaskID{registered[len(registered)-back]}
	}
	return t
}

// writePreload writes the retired history through the server's own
// platform and journal, so the server recovers it in its own format. It
// returns the IDs of the tasks it registered, oldest first.
func writePreload(path string, pool *entityPool, ticks, per int) ([]model.TaskID, error) {
	j, err := server.OpenJournalMode(path, server.FsyncNever, 0)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	p, err := server.NewPlatform(server.Config{Allocator: core.NewGreedy(), Journal: j})
	if err != nil {
		return nil, err
	}
	var tasks []model.TaskID
	for i := 0; i < ticks*per; i++ {
		if _, err := p.AddWorker(pool.worker(i, per)); err != nil {
			return nil, err
		}
		id, err := p.AddTask(pool.task(i, per, tasks))
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, id)
		if (i+1)%per == 0 {
			if _, err := p.Tick(float64((i+1)/per) * tickInterval); err != nil {
				return nil, err
			}
		}
	}
	return tasks, j.Close()
}

// serverProc is one running dasc-server.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts the binary on a free loopback port with default flags
// except -manual and the journal, and waits until it is ready. It returns
// the time to /v1/healthz (listening) and to /v1/readyz (recovered).
func startServer(bin, journal, logPath string, extra ...string) (sp *serverProc, listen, ready time.Duration, err error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, 0, err
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr, "-manual", "-journal", journal}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, err
	}
	sp = &serverProc{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { sp.done <- cmd.Wait() }()
	c := &http.Client{Timeout: time.Second}
	poll := func(path string) error {
		for {
			select {
			case err := <-sp.done:
				sp.done <- err
				return fmt.Errorf("dasc-server exited during start-up (%v): %s", err, logTail(logPath))
			default:
			}
			if time.Since(start) > 150*time.Second {
				return fmt.Errorf("dasc-server not ready after %v: %s", time.Since(start), logTail(logPath))
			}
			resp, err := c.Get(sp.base + path)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if err := poll("/v1/healthz"); err != nil {
		sp.stop()
		return nil, 0, 0, err
	}
	listen = time.Since(start)
	if err := poll("/v1/readyz"); err != nil {
		sp.stop()
		return nil, 0, 0, err
	}
	return sp, listen, time.Since(start), nil
}

// logTail returns the end of the server's log for an error message (the
// log's directory is removed when the run ends).
func logTail(path string) string {
	b, _ := os.ReadFile(path) // best effort: the message is a diagnostic
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// stop terminates the server gracefully (it flushes and closes its
// journal), killing it if it does not exit in time, and waits for it.
func (sp *serverProc) stop() error {
	_ = sp.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-sp.done:
		return err
	case <-time.After(20 * time.Second):
		_ = sp.cmd.Process.Kill()
		<-sp.done
		return errors.New("dasc-server did not stop on SIGTERM")
	}
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func getBytes(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// verifyRecovered replays the server's journal into a fresh in-process
// platform with server.Recover and checks that its registries and
// assignments equal what the live server served.
func verifyRecovered(journal string, servedInstance, servedAssignments []byte) error {
	p, err := server.NewPlatform(server.Config{Allocator: core.NewGreedy()})
	if err != nil {
		return err
	}
	defer p.Close()
	if _, err := server.Recover(p, journal+".snap", journal); err != nil {
		return err
	}
	var in, asg bytes.Buffer
	if err := dataset.Write(&in, p.Instance()); err != nil {
		return err
	}
	if err := dataset.WriteAssignment(&asg, p.Assignments()); err != nil {
		return err
	}
	if !bytes.Equal(in.Bytes(), servedInstance) {
		return fmt.Errorf("recovered registries (%d bytes) differ from GET /v1/instance (%d bytes)", in.Len(), len(servedInstance))
	}
	if !bytes.Equal(asg.Bytes(), servedAssignments) {
		return fmt.Errorf("recovered assignments (%d bytes) differ from GET /v1/assignments (%d bytes)", asg.Len(), len(servedAssignments))
	}
	return nil
}

func snapValue(s obs.Snapshot, name string) float64 {
	if v, ok := s.Counters[name]; ok {
		return float64(v)
	}
	return s.Gauges[name]
}

// session is one server start driven through the whole load schedule.
type session struct {
	listen, ready time.Duration
	lg            *loadgen
	before, after server.Stats
	mBefore       obs.Snapshot
	mAfter        obs.Snapshot
	traces        []obs.BatchTrace
	cpu, loadCPU  time.Duration
	peakRSS       float64
	verr          error // output check
}

// tickTime is the session's summed tick latency, by which sessions compare.
func (s *session) tickTime() float64 { return sum(s.lg.latencies(opTick, nil)) }

// runSession starts a server on journal (a copy of the preloaded history),
// drives the schedule through it, stops it and checks its journal.
func runSession(o Options, journal, logPath string, lg *loadgen, extra []string) (*session, error) {
	sp, listen, ready, err := startServer(o.Server, journal, logPath, extra...)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			sp.stop()
		}
	}()
	s := &session{listen: listen, ready: ready, lg: lg}
	lg.base = sp.base
	c := &http.Client{Timeout: 60 * time.Second}
	if err := getJSON(c, sp.base+"/v1/stats", &s.before); err != nil {
		return nil, err
	}
	if o.Trace {
		if err := getJSON(c, sp.base+"/v1/metrics?format=json", &s.mBefore); err != nil {
			return nil, err
		}
	}
	pid := sp.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	lg.run()
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	s.cpu, s.loadCPU = cpu1-cpu0, selfCPU()-self0
	if err := getJSON(c, sp.base+"/v1/stats", &s.after); err != nil {
		return nil, err
	}
	if o.Trace {
		if err := getJSON(c, sp.base+"/v1/metrics?format=json", &s.mAfter); err != nil {
			return nil, err
		}
		if err := getJSON(c, sp.base+"/v1/trace", &s.traces); err != nil {
			return nil, err
		}
	}
	if s.peakRSS, err = peakRSS(pid); err != nil {
		return nil, err
	}
	servedInstance, err := getBytes(c, sp.base+"/v1/instance")
	if err != nil {
		return nil, err
	}
	servedAssignments, err := getBytes(c, sp.base+"/v1/assignments")
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := sp.stop(); err != nil {
		return nil, err
	}
	s.verr = verifyRecovered(journal, servedInstance, servedAssignments)
	return s, nil
}

func copyFile(dst, src string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

func runServer(o Options) (*Result, error) {
	if o.Server == "" {
		return nil, errors.New("server-mixed needs -server <dasc-server binary>")
	}
	dir, err := os.MkdirTemp(o.TmpDir, "server-mixed-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	per := max(2, int(perWindow*o.Scale))
	preTicks := max(2, int(preloadTicks*o.Scale))
	ticks := max(2, int(o.Seconds/serverSessions*float64(time.Second)/float64(tickPeriod)))
	genStart := time.Now()
	pool, err := genPool((preTicks+ticks)*per, o.Seed)
	if err != nil {
		return nil, err
	}
	genD := time.Since(genStart)
	preloadJournal := filepath.Join(dir, "preload.jsonl")
	preStart := time.Now()
	preloaded, err := writePreload(preloadJournal, pool, preTicks, per)
	if err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	o.logf("server-mixed: %d retired entities written in %.2fs", 2*preTicks*per, time.Since(preStart).Seconds())

	var extra []string
	if o.Trace {
		// Keep every tick of the session in /v1/trace.
		extra = append(extra, "-trace-depth", strconv.Itoa(ticks+16))
	}
	logPath := filepath.Join(dir, "server.log")
	var listens, readies []float64
	// Starts beyond the sessions' own only time the set-up; they change
	// nothing in the journal.
	for i := serverSessions; i < serverStarts; i++ {
		sp, listen, ready, err := startServer(o.Server, preloadJournal, logPath, extra...)
		if err != nil {
			return nil, err
		}
		if err := sp.stop(); err != nil {
			return nil, err
		}
		listens, readies = append(listens, listen.Seconds()), append(readies, ready.Seconds())
	}
	var sessions []*session
	attempted, failed := 0, 0
	correct := true
	for i := 0; i < serverSessions; i++ {
		journal := filepath.Join(dir, fmt.Sprintf("session-%d.jsonl", i))
		if err := copyFile(journal, preloadJournal); err != nil {
			return nil, err
		}
		lg := &loadgen{
			pool: pool, per: per, firstWindow: preTicks, ticks: ticks,
			tasks:  append([]model.TaskID(nil), preloaded...),
			traced: o.Trace,
		}
		s, err := runSession(o, journal, logPath, lg, extra)
		if err != nil {
			return nil, err
		}
		listens, readies = append(listens, s.listen.Seconds()), append(readies, s.ready.Seconds())
		a, f := lg.counts()
		attempted, failed = attempted+a, failed+f
		if s.verr != nil {
			correct = false
			o.logf("server-mixed: session %d: output check failed: %v", i, s.verr)
		}
		o.logf("server-mixed: session %d: ready in %.2fs, %d ops, %d failed, %d assigned pairs, ticks took %.3fs",
			i, s.ready.Seconds(), a, f, s.after.AssignedTasks-s.before.AssignedTasks, s.tickTime()/1000)
		sessions = append(sessions, s)
	}
	// Both sessions replay the same history and schedule; the one whose
	// ticks took less time ran with less interference from the rest of the
	// machine and is the one reported.
	best := sessions[0]
	for _, s := range sessions[1:] {
		if s.tickTime() < best.tickTime() {
			best = s
		}
	}
	lg := best.lg

	m := metricSet{}
	ticksMS := lg.latencies(opTick, nil)
	if !o.Trace {
		m["setup_s"] = median(readies)
		m["run_s"] = sum(ticksMS) / 1000
		m["tick_p50_ms"] = quantile(ticksMS, 0.5)
		m["tick_p90_ms"] = quantile(ticksMS, 0.9)
		m["cpu_s"] = best.cpu.Seconds()
		m["rss_peak_mb"] = best.peakRSS
		m["assigned_pairs"] = float64(best.after.AssignedTasks - best.before.AssignedTasks)
		return m.result(false, correct, attempted, failed)
	}

	zero(m, simOnly)
	m["gen.generate_s"] = genD.Seconds()
	// Join each traced tick to its server-side trace by X-Request-ID.
	byID := make(map[string]obs.BatchTrace, len(best.traces))
	for _, t := range best.traces {
		if t.RequestID != "" {
			byID[t.RequestID] = t
		}
	}
	var agg traceAgg
	var wallMS float64
	tracedTicks := true
	for _, r := range lg.results(opTick, &tracedTicks) {
		if !r.ok {
			continue // counted in failed
		}
		t, ok := byID[r.id]
		if !ok {
			return nil, fmt.Errorf("tick %s has no server trace", r.id)
		}
		agg.add(t)
		wallMS += r.lat
	}
	agg.report(m, 1)
	m["trace.wall_s"] = wallMS / 1000
	m["trace.unattributed_s"] = (wallMS - agg.indexMS - agg.allocMS - agg.dispatchMS) / 1000
	m["tick.other_ms"] = 1000 * ratio(m["trace.unattributed_s"], float64(agg.steps))
	untracedTicks := false
	m["trace.overhead_ratio"] = ratio(mean(lg.latencies(opTick, &tracedTicks)), mean(lg.latencies(opTick, &untracedTicks))) - 1
	regs := append(lg.latencies(opWorker, nil), lg.latencies(opTask, nil)...)
	reads := lg.latencies(opRead, nil)
	m["register_p50_ms"] = quantile(regs, 0.5)
	m["register_p99_ms"] = quantile(regs, 0.99)
	m["read_p50_ms"] = quantile(reads, 0.5)
	m["read_p99_ms"] = quantile(reads, 0.99)
	m["error_ratio"] = ratio(float64(failed), float64(attempted))
	m["server.history_entities"] = float64(best.after.Workers + best.after.Tasks)
	m["server.listen_s"] = median(listens)
	var recov []float64
	for i := range readies {
		recov = append(recov, readies[i]-listens[i])
	}
	m["server.recovery_s"] = median(recov)
	delta := func(name string) float64 { return snapValue(best.mAfter, name) - snapValue(best.mBefore, name) }
	hsum := func(name string) float64 { return best.mAfter.Histograms[name].Sum - best.mBefore.Histograms[name].Sum }
	drains := delta(obs.MIngestDrainsTotal)
	m["ingest.drains"] = drains
	m["ingest.entries_per_drain"] = ratio(delta(obs.MIngestCommittedTotal), drains)
	m["ingest.commit_s"] = hsum(obs.TIngestCommitSeconds)
	m["ingest.journal_s"] = hsum(obs.TIngestJournalSeconds)
	m["ingest.wait_ms"] = quantile(lg.ingestWaits(), 0.5)
	m["journal.appends"] = delta(obs.MJournalAppendsTotal)
	m["journal.bytes"] = delta(obs.MJournalBytesTotal)
	m["journal.fsyncs"] = delta(obs.MJournalFsyncsTotal)
	m["runtime.gc_cycles"] = delta(obs.MRuntimeGCCyclesTotal)
	m["runtime.gc_pause_s"] = delta(obs.MRuntimeGCPauseSeconds)
	m["loadgen.late_p99_ms"] = quantile(lg.lateness(), 0.99)
	m["loadgen.cpu_s"] = best.loadCPU.Seconds()
	m["loadgen.read_queued_ratio"] = lg.readQueuedRatio()
	m["loadgen.ops"] = float64(len(lg.res))
	return m.result(true, correct, attempted, failed)
}
