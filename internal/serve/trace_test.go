package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// spanNames projects a trace's spans to their names, in order.
func spanNames(t JobTrace) []string {
	names := make([]string, len(t.Spans))
	for i, s := range t.Spans {
		names[i] = s.Name
	}
	return names
}

func getTrace(t *testing.T, ts *httptest.Server, id, query string) JobTrace {
	t.Helper()
	resp, body := get(t, ts, "/v1/jobs/"+id+"/trace"+query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace %s: %d %s", id, resp.StatusCode, body)
	}
	var tr JobTrace
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// A real run's trace covers every lifecycle phase in order; the trace ID is
// the deterministic digest of (spec hash, job ID).
func TestTraceEndpoint(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postSpec(t, ts, "alice", tinySpec(), "?wait=1")
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	tr := getTrace(t, ts, st.ID, "")
	if tr.Schema != TraceSchema {
		t.Fatalf("schema %q, want %q", tr.Schema, TraceSchema)
	}
	if tr.TraceID != TraceID(st.SpecHash, st.ID) {
		t.Fatalf("trace_id %q not derived from (spec hash, job id)", tr.TraceID)
	}
	want := []string{"queue-wait", "cache-lookup", "setup", "engine-run", "verify", "encode"}
	got := spanNames(tr)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("spans %v, want %v", got, want)
	}
	for _, sp := range tr.Spans {
		if sp.End.Before(sp.Start) || sp.DurationSeconds < 0 {
			t.Fatalf("span %s runs backwards: %+v", sp.Name, sp)
		}
	}

	// A result-cache hit replays bytes without an engine: its trace stops at
	// the cache lookup, and its distinct job ID yields a distinct trace ID.
	_, body = postSpec(t, ts, "alice", tinySpec(), "?wait=1")
	var st2 Status
	if err := json.Unmarshal(body, &st2); err != nil {
		t.Fatal(err)
	}
	tr2 := getTrace(t, ts, st2.ID, "")
	if tr2.TraceID == tr.TraceID {
		t.Fatal("distinct jobs share a trace ID")
	}
	got2 := spanNames(tr2)
	if strings.Join(got2, ",") != "queue-wait,cache-lookup" {
		t.Fatalf("cached job spans %v, want queue-wait,cache-lookup", got2)
	}
	if tr2.Spans[1].Detail != "result-hit" {
		t.Fatalf("cache-lookup detail %q, want result-hit", tr2.Spans[1].Detail)
	}
}

func TestTracePerfettoExport(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postSpec(t, ts, "", tinySpec(), "?wait=1")
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, ts, "/v1/jobs/"+st.ID+"/trace?format=perfetto")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("perfetto trace: %d %s", resp.StatusCode, body)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v\n%s", err, body)
	}
	// One metadata event plus the six lifecycle spans.
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("%d trace events, want 7:\n%s", len(doc.TraceEvents), body)
	}
	if doc.TraceEvents[0].Phase != "M" {
		t.Fatalf("first event phase %q, want metadata M", doc.TraceEvents[0].Phase)
	}
	for _, ev := range doc.TraceEvents[1:] {
		if ev.Phase != "X" || ev.Dur < 0 {
			t.Fatalf("bad complete event: %+v", ev)
		}
	}
}

func TestTraceNotFound(t *testing.T) {
	s := NewServer(Config{Workers: -1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := get(t, ts, "/v1/jobs/nope/trace")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace of unknown job: %d, want 404", resp.StatusCode)
	}
}

func TestPprofEndpoints(t *testing.T) {
	s := NewServer(Config{Workers: -1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index lacks profile listing:\n%s", body)
	}
	resp, _ = get(t, ts, "/debug/pprof/symbol")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof symbol: %d", resp.StatusCode)
	}
}

// /metrics carries the wall-clock latency histograms and the runtime/metrics
// snapshot alongside the recorder's counters.
func TestMetricsHistogramsAndRuntime(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postSpec(t, ts, "", tinySpec(), "?wait=1")
	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"stencilserve_queue_wait_seconds_bucket",
		"stencilserve_queue_wait_seconds_count 1",
		"stencilserve_run_seconds_bucket",
		"stencilserve_run_seconds_count 1",
		"# TYPE go_sched_goroutines gauge",
		"go_memory_classes_heap_objects_bytes",
		"go_gc_cycles_total_gc_cycles",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestTracePerfettoBytes pins the exact Chrome trace-event bytes for fixed
// span times: timestamps are microseconds from the earliest span start, the
// detail rides in args only when set, and the process metadata event
// comes first.
func TestTracePerfettoBytes(t *testing.T) {
	t0 := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	tr := JobTrace{
		Schema:  TraceSchema,
		TraceID: "0123456789abcdef",
		Job:     "j000042",
		Spans: []TraceSpan{
			{Name: "queue-wait", Start: at(0), End: at(1500)},
			{Name: "cache-lookup", Detail: "setup-hit", Start: at(1500), End: at(1502)},
			{Name: "engine-run", Start: at(1502), End: at(250001).Add(250 * time.Nanosecond)},
		},
	}
	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `{"traceEvents":[{"name":"process_name","cat":"","ph":"M","ts":0,"dur":0,"pid":1,"tid":"","args":{"name":"stencilserve j000042"}},{"name":"queue-wait","cat":"serve","ph":"X","ts":0,"dur":1500,"pid":1,"tid":"0123456789abcdef"},{"name":"cache-lookup","cat":"serve","ph":"X","ts":1500,"dur":2,"pid":1,"tid":"0123456789abcdef","args":{"detail":"setup-hit"}},{"name":"engine-run","cat":"serve","ph":"X","ts":1502,"dur":248499.25,"pid":1,"tid":"0123456789abcdef"}]}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("perfetto bytes changed:\n got %s\nwant %s", got, want)
	}
}
