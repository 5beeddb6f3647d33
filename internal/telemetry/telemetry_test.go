package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestCounterGaugeRegistry(t *testing.T) {
	r := New()
	r.Counter("ops_total", L("kind", "kernel")).Inc()
	r.Counter("ops_total", L("kind", "kernel")).Add(2)
	r.Counter("ops_total", L("kind", "memcpy")).Inc()
	r.Gauge("plans", L("method", "STAGED")).Set(5)
	r.Gauge("plans", L("method", "STAGED")).Add(-2)

	if v := r.Counter("ops_total", L("kind", "kernel")).Value(); v != 3 {
		t.Fatalf("counter = %g, want 3", v)
	}
	if v := r.Gauge("plans", L("method", "STAGED")).Value(); v != 3 {
		t.Fatalf("gauge = %g, want 3", v)
	}
	s := r.Snapshot()
	if len(s.Counters) != 2 || len(s.Gauges) != 1 {
		t.Fatalf("snapshot has %d counters, %d gauges", len(s.Counters), len(s.Gauges))
	}
	// Export order is sorted by (name, labels) regardless of creation order.
	if s.Counters[0].Labels["kind"] != "kernel" || s.Counters[1].Labels["kind"] != "memcpy" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := New()
	r.Counter("m", L("a", "1"), L("b", "2")).Inc()
	r.Counter("m", L("b", "2"), L("a", "1")).Inc()
	if got := r.Counter("m", L("a", "1"), L("b", "2")).Value(); got != 2 {
		t.Fatalf("label permutations did not canonicalize: %g", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat", SecondsBuckets)
	h.Observe(1e-6)  // exactly the first bound -> bucket 0 (le semantics)
	h.Observe(3e-6)  // -> 5e-6 bucket
	h.Observe(100.0) // overflow
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	s := r.Snapshot()
	hm := s.Histograms[0]
	if hm.Counts[0] != 1 {
		t.Fatalf("first bucket = %d, want 1", hm.Counts[0])
	}
	if hm.Counts[2] != 1 {
		t.Fatalf("5e-6 bucket = %d, want 1", hm.Counts[2])
	}
	if hm.Counts[len(hm.Counts)-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", hm.Counts[len(hm.Counts)-1])
	}
}

func TestTrackCoalescingAndIntegral(t *testing.T) {
	r := New()
	r.Sample("l", 0, 0.5)
	r.Sample("l", 1, 0.5) // duplicate value: coalesced, integral still accrues
	r.Sample("l", 2, 1.0)
	r.Sample("l", 4, 0.0)
	tr := r.Tracks()[0]
	if len(tr.Times) != 3 {
		t.Fatalf("expected 3 coalesced points, got %d (%v)", len(tr.Times), tr.Times)
	}
	// ∫ = 0.5*2 + 1.0*2 = 3.0
	if tr.Integral() != 3.0 {
		t.Fatalf("integral = %g, want 3", tr.Integral())
	}
	if tr.Peak() != 1.0 {
		t.Fatalf("peak = %g", tr.Peak())
	}
}

func TestTrackSameInstantKeepsFinalValue(t *testing.T) {
	r := New()
	r.Sample("l", 1, 0.25)
	r.Sample("l", 1, 0.75)
	tr := r.Tracks()[0]
	if len(tr.Times) != 1 || tr.Values[0] != 0.75 {
		t.Fatalf("same-instant samples: %v %v", tr.Times, tr.Values)
	}
}

func TestSpansHierarchy(t *testing.T) {
	r := New()
	root := r.StartSpan("setup", nil, 0)
	child := r.StartSpan("setup.partition", root, 0)
	child.End(0)
	root.End(1, L("plans", "42"))
	root.End(2) // double End is a no-op

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans", len(spans))
	}
	if spans[0].Parent != root.id || spans[1].Parent != -1 {
		t.Fatalf("parents: %+v", spans)
	}
	s := r.Snapshot()
	if len(s.Spans) != 2 || s.Spans[0].Name != "setup" || s.Spans[0].TotalSeconds != 1 {
		t.Fatalf("span stats: %+v", s.Spans)
	}
}

func TestEventLogNDJSON(t *testing.T) {
	r := New()
	r.Event(0.5, "fault", F("fault", "link-fail"), F("desc", `a "quoted" name`))
	r.Event(1.25, "retry", F("attempt", 2))
	var buf bytes.Buffer
	if err := r.WriteEvents(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines: %q", len(lines), buf.String())
	}
	if want := `{"t":0.5,"kind":"fault","fault":"link-fail","desc":"a \"quoted\" name"}`; lines[0] != want {
		t.Fatalf("line 0:\n got %s\nwant %s", lines[0], want)
	}
	// Every line must be valid JSON.
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("invalid JSON line %q: %v", ln, err)
		}
	}
}

func TestDeterministicExports(t *testing.T) {
	build := func() *Recorder {
		r := New()
		r.LinkSample(0.1, "n0.nic.out", 0.8, 3)
		r.LinkSample(0.2, "n0.nvlink.0-1", 0.4, 1)
		r.Rebalanced(0.2, 2, 4, 4)
		r.RecordOp("kernel", "pack.p1", 0, "d0.p1.send", 0.1, 0.2, 4096)
		r.MPIRetry(0.3, "mpi.wire", 1)
		r.FaultApplied(0.4, "link-fail", "fail n0.nic")
		sp := r.StartSpan("run", nil, 0)
		sp.End(0.5)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteEvents(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteEvents(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("NDJSON not byte-identical across identical recorders")
	}
	a.Reset()
	b.Reset()
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot JSON not byte-identical across identical recorders")
	}
	a.Reset()
	b.Reset()
	if err := build().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Prometheus text not byte-identical across identical recorders")
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("ops_total", L("kind", "kernel")).Add(7)
	r.Histogram("lat", CountBuckets).Observe(3)
	r.LinkSample(0, "n0.nic.out", 1.0, 2)
	r.LinkSample(2, "n0.nic.out", 0.0, 0)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`ops_total{kind="kernel"} 7`,
		`lat_bucket{le="4"} 1`,
		`lat_count 1`,
		`link_busy_seconds{link="n0.nic.out"} 2`,
		`link_peak_util{link="n0.nic.out"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestPrometheusFamilyGrouping pins the exposition-format contract: one
// HELP and one TYPE header per metric family no matter how many labeled
// series share the name, even when one family name prefixes another (the
// canonical-key sort interleaves such families).
func TestPrometheusFamilyGrouping(t *testing.T) {
	r := New()
	r.Counter("mpi_protocol_total", L("kind", "drop")).Inc()
	r.Counter("mpi_protocol_total", L("kind", "retransmit")).Inc()
	r.Counter("mpi_protocol").Inc() // prefix of the family above
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "# TYPE mpi_protocol_total counter\n"); n != 1 {
		t.Fatalf("want exactly 1 TYPE header for mpi_protocol_total, got %d:\n%s", n, out)
	}
	if !strings.Contains(out, "# HELP mpi_protocol_total ") {
		t.Fatalf("missing HELP line for mpi_protocol_total:\n%s", out)
	}
	// Series of one family must be contiguous under their header.
	header := "# TYPE mpi_protocol_total counter\n"
	rest := out[strings.Index(out, header)+len(header):]
	block := rest
	if end := strings.Index(rest, "# "); end >= 0 {
		block = rest[:end]
	}
	for _, want := range []string{`mpi_protocol_total{kind="drop"} 1`, `mpi_protocol_total{kind="retransmit"} 1`} {
		if !strings.Contains(block, want) {
			t.Fatalf("series %q not under its family header:\n%s", want, out)
		}
	}
}

// recordSampleOps feeds four ops on three streams of two devices, out of
// lane order, plus one host-side staging copy.
func recordSampleOps(r *Recorder) []Op {
	ops := []Op{
		{Kind: "kernel", Name: "pack", Device: 0, Stream: "d0.s1", Start: 0.001, End: 0.002, Bytes: 100},
		{Kind: "memcpyD2D", Name: "cp", Device: 0, Stream: "d0.s1", Start: 0.002, End: 0.004, Bytes: 100},
		{Kind: "kernel", Name: "unpack", Device: 1, Stream: "d1.s1", Start: 0.004, End: 0.005, Bytes: 100},
		{Kind: "memcpyD2H", Name: "d2h", Device: 1, Stream: "d1.s2", Start: 0.001, End: 0.003, Bytes: 50},
		{Kind: "memcpyH2H", Name: "stage", Device: -1, Stream: "host", Start: 0.003, End: 0.0035, Bytes: 50},
	}
	for _, op := range ops {
		r.RecordOp(op.Kind, op.Name, op.Device, op.Stream, op.Start, op.End, op.Bytes)
	}
	return ops
}

// Ops returns exactly what RecordOp ingested, in record order, whatever
// other events interleave.
func TestOpsRoundTrip(t *testing.T) {
	r := New()
	r.Event(0, "fault", F("fault", "kill"))
	want := recordSampleOps(r)
	r.LinkSample(0.002, "n0.nic.out", 0.5, 1)
	if got := r.Ops(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Ops() = %+v\nwant %+v", got, want)
	}
}

func TestChromeTraceJSON(t *testing.T) {
	r := New()
	recordSampleOps(r)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Cat   string  `json:"cat"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			PID   int     `json:"pid"`
			TID   string  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("events = %d, want 5", len(doc.TraceEvents))
	}
	var lanes []string
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "X" || ev.Dur <= 0 {
			t.Errorf("bad event %+v", ev)
		}
		lanes = append(lanes, fmt.Sprintf("%d/%s/%s/%s", ev.PID, ev.TID, ev.Name, ev.Cat))
	}
	// Events come in lane order (device, stream, start), and every op keeps
	// its own kind as the category.
	want := "-1/host/stage/memcpyH2H 0/d0.s1/pack/kernel 0/d0.s1/cp/memcpyD2D 1/d1.s1/unpack/kernel 1/d1.s2/d2h/memcpyD2H"
	if got := strings.Join(lanes, " "); got != want {
		t.Errorf("events %s\nwant   %s", got, want)
	}
	// Timestamps are rebased to the span start in microseconds.
	if ts := doc.TraceEvents[1].TS; ts != 0 {
		t.Errorf("earliest op ts = %g, want 0", ts)
	}
}

func TestChromeTraceLinkCounters(t *testing.T) {
	r := New()
	recordSampleOps(r)
	times := []float64{0.0005, 0.002, 0.004}
	for i, util := range []float64{0, 0.8, 0.2} {
		r.LinkSample(times[i], "n0.nic.out", util, 1)
	}
	r.Sample("flownet.active", 0.0001, 3) // not a link track: no counter
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var counters, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "C":
			counters++
			if ev.Name != "n0.nic.out" || ev.PID != counterPID {
				t.Errorf("bad counter event %+v", ev)
			}
			if _, ok := ev.Args["value"]; !ok {
				t.Errorf("counter event missing value arg: %+v", ev)
			}
			// The first track sample predates the first op; the whole trace
			// must rebase to it so no timestamp is negative.
			if ev.TS < 0 {
				t.Errorf("negative counter timestamp %g", ev.TS)
			}
		case "M":
			meta++
		case "X":
			if ev.TS < 0 {
				t.Errorf("negative op timestamp %g", ev.TS)
			}
		}
	}
	if counters != 3 || meta != 1 {
		t.Fatalf("got %d counter events, %d metadata events; want 3, 1", counters, meta)
	}
}
