package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dasc/internal/model"
	"dasc/internal/obs"
)

// loadgen is the server workload's open-loop generator. It runs in this
// process over two keep-alive loopback connections, as many as a two-CPU
// machine has CPUs: one sends the registrations, the other the ticks and
// the reads, merged in due order, so that registrations meet ticks on the
// platform lock as they do in service. Every request has a due time fixed
// by the schedule. Tick and registration latency runs from the due time, so
// a stall shows up in the requests queued behind it; lateness is how far the
// generator itself fell behind with the connection free. Read latency runs
// from sending, so that it is the server's read path and not the wait for a
// tick to finish on the shared connection; the share of reads that waited
// so is reported apart. Failed, refused (429/503) and timed-out requests
// count as failures and are not retried.
//
// Registrations go over a single connection so that task IDs, and with them
// the dependencies the schedule draws, follow from the seed alone. So at
// most one registration is in flight, and the server's group commit drains
// one entry at a time.
type loadgen struct {
	base        string
	pool        *entityPool
	per         int
	firstWindow int // pool window of the run's first registrations
	ticks       int
	tasks       []model.TaskID // IDs of every registered task, oldest first
	traced      bool

	mu     sync.Mutex
	res    []opResult
	drains map[int]obs.DrainTrace // ingest drains seen on /v1/ingest, by sequence number
}

type opKind int

const (
	opWorker opKind = iota
	opTask
	opRead
	opTick
)

// op is one scheduled request.
type op struct {
	kind   opKind
	due    time.Duration // from the start of the run
	index  int           // pool entity (registrations) or tick number
	traced bool
}

type opResult struct {
	kind   opKind
	traced bool
	id     string  // X-Request-ID, traced requests only
	lat    float64 // ms from due (reads: from sending) to response
	late   float64 // ms the generator sent after it could have
	queued bool    // due while its connection still served an earlier request
	ok     bool
}

// schedule returns the registration schedule and the merged tick/read
// schedule. Tick k (1-based) is due at k·tickPeriod and advances logical time
// to the end of window firstWindow+k-1, whose registrations are spread evenly
// over the period before it. A tick and the registrations and reads before
// it are traced when its block of tracedBlock ticks is odd.
func (g *loadgen) schedule() (regs, ticks []op) {
	// Short runs shrink the blocks so that both kinds of tick occur.
	block := max(1, min(tracedBlock, g.ticks/2))
	tracedAt := func(d time.Duration) bool {
		return g.traced && (int(d/tickPeriod)/block)%2 == 1
	}
	for k := 1; k <= g.ticks; k++ {
		due := time.Duration(k) * tickPeriod
		ticks = append(ticks, op{kind: opTick, due: due, index: k, traced: tracedAt(due - 1)})
		step := tickPeriod / time.Duration(2*g.per)
		for j := 0; j < 2*g.per; j++ {
			d := due - tickPeriod + step/2 + time.Duration(j)*step
			kind := opWorker
			if j%2 == 1 {
				kind = opTask
			}
			regs = append(regs, op{kind: kind, due: d, index: (g.firstWindow+k-1)*g.per + j/2, traced: tracedAt(d)})
		}
	}
	end := time.Duration(g.ticks) * tickPeriod
	for r := 0; ; r++ {
		d := time.Duration((float64(r) + 0.5) / readsPerSec * float64(time.Second))
		if d >= end {
			break
		}
		ticks = append(ticks, op{kind: opRead, due: d, traced: tracedAt(d)})
	}
	sort.SliceStable(ticks, func(a, b int) bool { return ticks[a].due < ticks[b].due })
	return regs, ticks
}

// run drives the whole schedule and returns when every request has ended.
func (g *loadgen) run() {
	regs, ticks := g.schedule()
	g.drains = map[int]obs.DrainTrace{}
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); g.drive(start, ticks) }()
	go func() { defer wg.Done(); g.drive(start, regs) }()
	wg.Wait()
	if g.traced {
		c := &conn{addr: strings.TrimPrefix(g.base, "http://")}
		g.pollIngest(c)
		c.close()
	}
}

// conn is one keep-alive HTTP/1.1 connection: a plain net.Conn with
// http.ReadResponse. With it the whole generator uses about two thirds of
// the CPU time (loadgen.cpu_s) it uses with a net/http Client per
// connection, which leaves more of the machine to the server under test.
type conn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
	buf  bytes.Buffer
}

// do sends one request and returns the response status and body. Any error
// drops the connection; the next request dials a fresh one.
func (c *conn) do(method, path, reqID string, body []byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.r = nc, bufio.NewReader(nc)
	}
	c.buf.Reset()
	fmt.Fprintf(&c.buf, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, c.addr)
	if reqID != "" {
		fmt.Fprintf(&c.buf, "X-Request-ID: %s\r\n", reqID)
	}
	if body != nil {
		fmt.Fprintf(&c.buf, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	c.buf.WriteString("\r\n")
	c.buf.Write(body)
	_ = c.c.SetDeadline(time.Now().Add(requestTimeout))
	resp, err := c.send()
	if err != nil {
		c.close()
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, b, err
}

func (c *conn) send() (*http.Response, error) {
	if _, err := c.c.Write(c.buf.Bytes()); err != nil {
		return nil, err
	}
	return http.ReadResponse(c.r, nil)
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c, c.r = nil, nil
	}
}

// drive sends ops in order over one connection.
func (g *loadgen) drive(start time.Time, ops []op) {
	c := &conn{addr: strings.TrimPrefix(g.base, "http://")}
	defer c.close()
	free := start
	for _, o := range ops {
		due := start.Add(o.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		ready := due
		if free.After(ready) {
			ready = free
		}
		r := opResult{kind: o.kind, traced: o.traced, late: ms(sent.Sub(ready)), queued: free.After(due)}
		if o.traced {
			r.id = fmt.Sprintf("pb-%d-%d-%d", o.kind, o.index, o.due)
		}
		r.ok = g.send(c, o, r.id)
		r.lat = ms(time.Since(due))
		if o.kind == opRead {
			r.lat = ms(time.Since(sent))
		}
		if o.kind == opTick && o.traced {
			g.pollIngest(c)
		}
		free = time.Now()
		g.mu.Lock()
		g.res = append(g.res, r)
		g.mu.Unlock()
	}
}

type workerBody struct {
	X        float64       `json:"x"`
	Y        float64       `json:"y"`
	Start    float64       `json:"start"`
	Wait     float64       `json:"wait"`
	Velocity float64       `json:"velocity"`
	MaxDist  float64       `json:"max_dist"`
	Skills   []model.Skill `json:"skills"`
}

type taskBody struct {
	X        float64        `json:"x"`
	Y        float64        `json:"y"`
	Start    float64        `json:"start"`
	Wait     float64        `json:"wait"`
	Requires model.Skill    `json:"requires"`
	Deps     []model.TaskID `json:"deps,omitempty"`
}

// send issues one request and reports whether it succeeded (2xx within the
// timeout). Registration responses are parsed for the new task's ID.
func (g *loadgen) send(c *conn, o op, reqID string) bool {
	var method, path string
	var body any
	switch o.kind {
	case opWorker:
		w := g.pool.worker(o.index, g.per)
		method, path = http.MethodPost, "/v1/workers"
		body = workerBody{w.Loc.X, w.Loc.Y, w.Start, w.Wait, w.Velocity, w.MaxDist, w.Skills.Skills()}
	case opTask:
		t := g.pool.task(o.index, g.per, g.tasks)
		method, path = http.MethodPost, "/v1/tasks"
		body = taskBody{t.Loc.X, t.Loc.Y, t.Start, t.Wait, t.Requires, t.Deps}
	case opRead:
		method, path = http.MethodGet, "/v1/stats"
	case opTick:
		t := float64(g.firstWindow+o.index) * tickInterval
		method, path = http.MethodPost, "/v1/tick?t="+strconv.FormatFloat(t, 'g', -1, 64)
	}
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			return false
		}
	}
	status, resp, err := c.do(method, path, reqID, b)
	if err != nil || status < 200 || status > 299 {
		return false
	}
	if o.kind != opTask {
		return true
	}
	var id struct {
		ID model.TaskID `json:"id"`
	}
	if err := json.Unmarshal(resp, &id); err != nil {
		return false
	}
	g.tasks = append(g.tasks, id.ID)
	return true
}

// pollIngest records the drains GET /v1/ingest still holds.
func (g *loadgen) pollIngest(c *conn) {
	var v struct {
		Drains []obs.DrainTrace `json:"drains"`
	}
	status, b, err := c.do(http.MethodGet, "/v1/ingest?last=256", "", nil)
	if err != nil || status != http.StatusOK || json.Unmarshal(b, &v) != nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, d := range v.Drains {
		g.drains[d.Seq] = d
	}
}

// results returns the results of one kind; traced, when non-nil, keeps only
// those traced (or untraced) as it says.
func (g *loadgen) results(kind opKind, traced *bool) []opResult {
	var out []opResult
	for _, r := range g.res {
		if r.kind == kind && (traced == nil || r.traced == *traced) {
			out = append(out, r)
		}
	}
	return out
}

// latencies returns the latencies of the successful results of one kind.
func (g *loadgen) latencies(kind opKind, traced *bool) []float64 {
	var out []float64
	for _, r := range g.results(kind, traced) {
		if r.ok {
			out = append(out, r.lat)
		}
	}
	return out
}

func (g *loadgen) lateness() []float64 {
	out := make([]float64, len(g.res))
	for i, r := range g.res {
		out[i] = r.late
	}
	return out
}

// readQueuedRatio is the share of reads that were due while their
// connection still served an earlier request.
func (g *loadgen) readQueuedRatio() float64 {
	reads := g.results(opRead, nil)
	n := 0
	for _, r := range reads {
		if r.queued {
			n++
		}
	}
	return ratio(float64(n), float64(len(reads)))
}

func (g *loadgen) counts() (attempted, failed int) {
	for _, r := range g.res {
		if !r.ok {
			failed++
		}
	}
	return len(g.res), failed
}

// ingestWaits returns, for each traced registration whose drain /v1/ingest
// still held when polled, its latency minus the drain's commit time: the
// time it waited in the admission queue, for the platform lock and on the
// wire.
func (g *loadgen) ingestWaits() []float64 {
	commit := map[string]float64{}
	for _, d := range g.drains {
		for _, id := range d.RequestIDs {
			commit[id] = d.CommitMS
		}
	}
	var out []float64
	for _, r := range g.res {
		if c, ok := commit[r.id]; ok && r.ok && (r.kind == opWorker || r.kind == opTask) {
			out = append(out, r.lat-c)
		}
	}
	return out
}
