package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dasc/internal/core"
	"dasc/internal/obs"
)

// TestRequestIDCorrelationEndToEnd is the acceptance test for the telemetry
// tentpole: one known X-Request-ID sent with a registration is (1) echoed on
// the response, (2) visible in the committing group-commit drain trace, and
// (3) carried by the access-log line — so an operator can walk from a client
// log to the commit that persisted the request with one grep.
func TestRequestIDCorrelationEndToEnd(t *testing.T) {
	var logBuf bytes.Buffer
	p, err := NewPlatform(Config{
		Allocator:      core.NewGreedy(),
		IngestQueue:    64,
		Logger:         slog.New(slog.NewJSONHandler(&logBuf, nil)),
		AccessLogEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ts := httptest.NewServer(Handler(p))
	defer ts.Close()

	const reqID = "e2e-correlate-42"
	req, _ := http.NewRequest("POST", ts.URL+"/v1/workers",
		strings.NewReader(`{"x":1,"y":2,"start":0,"wait":100,"velocity":10,"max_dist":100,"skills":[0]}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("worker registration status = %d", resp.StatusCode)
	}

	// (1) The response echoes the ID.
	if got := resp.Header.Get(RequestIDHeader); got != reqID {
		t.Errorf("echoed ID = %q, want %q", got, reqID)
	}

	// (2) The registration went through the group-commit queue; the
	// response only returns after its drain committed, so the drain trace
	// carrying the ID already exists.
	drains := p.IngestDrains(100)
	var found bool
	for _, d := range drains {
		for _, id := range d.RequestIDs {
			if id == reqID {
				found = true
				if d.RequestIDCount < 1 {
					t.Errorf("drain carries ID but RequestIDCount = %d", d.RequestIDCount)
				}
			}
		}
	}
	if !found {
		t.Errorf("no drain trace carries %q: %+v", reqID, drains)
	}

	// The same ID travels the ticking path into the batch trace.
	if _, err := p.TickTagged(0, reqID); err != nil {
		t.Fatal(err)
	}
	traces := p.Traces().Last(1)
	if len(traces) != 1 || traces[0].RequestID != reqID {
		t.Errorf("batch trace request_id = %+v, want %q", traces, reqID)
	}

	// (3) The access log carries the ID on the registration's line.
	var logged bool
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) != nil {
			continue
		}
		if rec["msg"] == "http request" && rec["request_id"] == reqID {
			logged = true
			if rec["route"] != "POST /v1/workers" {
				t.Errorf("access log route = %v", rec["route"])
			}
		}
	}
	if !logged {
		t.Errorf("no access-log line with request_id=%s:\n%s", reqID, logBuf.String())
	}

	// The drain trace is also visible over the API, ID included.
	r2, body := getBody(t, ts.URL+"/v1/ingest")
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", r2.StatusCode)
	}
	if !strings.Contains(body, reqID) {
		t.Errorf("GET /v1/ingest missing %q:\n%s", reqID, body)
	}
}

// TestMetricsExpositionConformance scrapes the full /v1/metrics output after
// real traffic (registrations through the queue, ticks, HTTP churn) and runs
// it through the Prometheus text-format validator — every family, sample,
// label quoting and histogram bucket invariant on the real surface, not a
// synthetic registry.
func TestMetricsExpositionConformance(t *testing.T) {
	p, err := NewPlatform(Config{Allocator: core.NewGreedy(), IngestQueue: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ts := httptest.NewServer(Handler(p))
	defer ts.Close()

	for _, body := range []string{
		`{"x":0,"y":0,"start":0,"wait":100,"velocity":10,"max_dist":100,"skills":[0]}`,
		`{"x":5,"y":5,"start":0,"wait":100,"velocity":10,"max_dist":100,"skills":[1]}`,
	} {
		if resp, out := postJSON(t, ts.URL+"/v1/workers", body); resp.StatusCode != http.StatusCreated {
			t.Fatalf("worker: %d (%v)", resp.StatusCode, out)
		}
	}
	if resp, out := postJSON(t, ts.URL+"/v1/tasks",
		`{"x":1,"y":1,"start":0,"wait":100,"requires":0,"deps":[],"weight":1}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("task: %d (%v)", resp.StatusCode, out)
	}
	if resp, out := postJSON(t, ts.URL+"/v1/tick?t=0", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("tick: %d (%v)", resp.StatusCode, out)
	}
	// A guaranteed 4xx so that status class has a series too.
	if resp, _ := postJSON(t, ts.URL+"/v1/tick?t=bogus", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tick status %d", resp.StatusCode)
	}

	resp, text := getBody(t, ts.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	exp, err := obs.ValidateExposition(text)
	if err != nil {
		t.Fatalf("/v1/metrics fails exposition validation: %v\n%s", err, text)
	}

	wantTypes := map[string]string{
		obs.MHTTPRequestsTotal:      "counter",
		obs.MHTTPRequestBytesTotal:  "counter",
		obs.MHTTPResponseBytesTotal: "counter",
		obs.THTTPRequestSeconds:     "histogram",
		obs.TIngestCommitSeconds:    "histogram",
		obs.TIngestBatchEntries:     "histogram",
		obs.TPhaseAlloc:             "histogram",
		obs.MRuntimeGoroutines:      "gauge",
		obs.MRuntimeHeapAllocBytes:  "gauge",
		obs.MRuntimeGCCyclesTotal:   "counter",
		obs.MRuntimeUptimeSeconds:   "gauge",
		obs.MBatchesTotal:           "counter",
		obs.MIngestDrainsTotal:      "counter",
	}
	for name, typ := range wantTypes {
		if got := exp.Types[name]; got != typ {
			t.Errorf("family %s type = %q, want %q", name, got, typ)
		}
	}

	// Drain sizes land in the power-of-two buckets, the largest at 4096.
	drainBuckets := 0
	for _, s := range exp.Samples {
		if s.Name == obs.TIngestBatchEntries+"_bucket" && s.Labels["le"] == "4096" && s.Value > 0 {
			drainBuckets++
		}
	}
	if drainBuckets != 1 {
		t.Errorf("%s_bucket{le=\"4096\"} missing or empty:\n%s", obs.TIngestBatchEntries, text)
	}

	// Status-class labels made it through with live values.
	var ok2xx, ok4xx bool
	for _, s := range exp.Samples {
		if s.Name != obs.MHTTPRequestsTotal || s.Value == 0 {
			continue
		}
		switch s.Labels["code"] {
		case "2xx":
			ok2xx = true
		case "4xx":
			ok4xx = true
		}
	}
	if !ok2xx || !ok4xx {
		t.Errorf("missing live status-class series (2xx=%v, 4xx=%v)", ok2xx, ok4xx)
	}
}
