// Package telemetry is the unified observability layer for the simulated
// stack: a virtual-time metrics registry (counters, gauges, histograms with
// fixed bucket layouts), hierarchical spans, per-link utilization tracks,
// and a structured event log keyed by virtual time.
//
// Everything a Recorder captures is a pure function of the simulation it
// observes: no wall-clock timestamps, no map-iteration order, no allocation
// addresses leak into any export. Two identical runs therefore produce
// byte-identical NDJSON event logs, JSON snapshots, and Prometheus dumps —
// which is what lets CI compare a regenerated metrics report byte for byte
// with the committed golden (results/METRICS.json).
//
// A Recorder is strictly passive: its hooks never schedule events, park
// processes, or otherwise touch the engine, so enabling telemetry cannot
// change simulated virtual times. All hooks run in the engine's event
// context (never on payload worker goroutines), so no locking is needed.
package telemetry

import (
	"sort"
	"strings"
)

// Label is one metric dimension (a Prometheus-style key=value pair).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Field is one ordered key/value pair of an event-log record. Values must be
// JSON-encodable scalars (string, bool, ints, float64).
type Field struct {
	Key   string
	Value any
}

// F is shorthand for constructing a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Fixed bucket layouts. Histograms share these package-level layouts so the
// exported schema never depends on runtime values.
var (
	// SecondsBuckets spans 1 µs .. 10 s in a 1-2.5-5 decade pattern.
	SecondsBuckets = []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1, 2.5, 5, 10,
	}
	// CountBuckets is powers of four from 1 to 64Ki (component sizes,
	// flow counts).
	CountBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}
	// BytesBuckets is powers of four from 1 KiB to 1 GiB (message sizes).
	BytesBuckets = []float64{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24, 1 << 26, 1 << 28, 1 << 30}
)

// Counter is a monotonically increasing value.
type Counter struct{ v float64 }

// Add increases the counter.
func (c *Counter) Add(d float64) { c.v += d }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current value.
func (c *Counter) Value() float64 { return c.v }

// Gauge is a value that can move both ways.
type Gauge struct{ v float64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add shifts the gauge value.
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram is a fixed-layout cumulative histogram: Buckets holds the upper
// bounds (le semantics); counts has one extra slot for the +Inf overflow.
type Histogram struct {
	buckets []float64
	counts  []uint64
	sum     float64
	n       uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with bound >= v
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Event is one structured event-log record: a virtual timestamp, a kind, and
// ordered fields. Records are written as NDJSON in append order (which is
// engine event order, hence deterministic).
type Event struct {
	T      float64
	Kind   string
	Fields []Field
}

// Span is an in-flight hierarchical phase. Spans carry explicit parents
// (ranks interleave; there is no meaningful global stack) and explicit
// virtual times, so they are plain data: starting or ending one never
// touches the engine.
type Span struct {
	r     *Recorder
	id    int
	par   int
	name  string
	start float64
	ended bool
	feat  Feature // "" = unattributed; set via StartSpanFeature
}

// SpanRecord is one completed span.
type SpanRecord struct {
	ID     int
	Parent int // -1 for roots
	Name   string
	Start  float64
	End    float64
	Tags   []Label
}

// Track is one counter-track time series (a step function over virtual
// time): per-link utilization, active-flow counts. Consecutive duplicate
// values are coalesced; the time-weighted integral is maintained so
// ∫ util dt ("link busy seconds") is exact regardless of coalescing.
type Track struct {
	Name   string
	Times  []float64
	Values []float64

	integral float64
	peak     float64
	lastT    float64
	lastV    float64
	started  bool
	samples  int
	isLink   bool
}

// Integral returns the time-weighted integral of the track up to the last
// sample.
func (tr *Track) Integral() float64 { return tr.integral }

// Peak returns the largest sampled value.
func (tr *Track) Peak() float64 { return tr.peak }

// IsLink reports whether the track was fed by LinkSample (per-link
// utilization) rather than a generic Sample series.
func (tr *Track) IsLink() bool { return tr.isLink }

func (tr *Track) sample(t, v float64) {
	tr.samples++
	if tr.started {
		if t < tr.lastT {
			t = tr.lastT
		}
		tr.integral += tr.lastV * (t - tr.lastT)
	}
	if v > tr.peak {
		tr.peak = v
	}
	switch n := len(tr.Times); {
	case n == 0:
		tr.Times = append(tr.Times, t)
		tr.Values = append(tr.Values, v)
	case tr.Times[n-1] == t:
		tr.Values[n-1] = v // same instant: keep the final value
	case tr.Values[n-1] != v:
		tr.Times = append(tr.Times, t)
		tr.Values = append(tr.Values, v)
	}
	tr.lastT, tr.lastV, tr.started = t, v, true
}

// Recorder is the telemetry sink threaded through the stack via
// exchange.Options.Telemetry. The zero value is not usable; call New.
type Recorder struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	metas    map[string]metricMeta

	tracks map[string]*Track

	events []Event
	spans  []SpanRecord
	nextID int

	// ledger accumulates per-feature cost attribution (ledger.go). It is
	// fed by feature-tagged spans and the Attribute* methods and never
	// leaks into Snapshot or the event log.
	ledger map[Feature]*LedgerEntry

	// LinkEvents controls whether every per-link utilization sample is also
	// appended to the event log (kind "link"). On by default; the report
	// tool's top-N hot links read these. Metrics and tracks are unaffected.
	LinkEvents bool
}

// metricMeta remembers a metric's identity for export.
type metricMeta struct {
	name   string
	labels []Label // sorted by key
}

// New creates an empty recorder.
func New() *Recorder {
	return &Recorder{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		hists:      make(map[string]*Histogram),
		metas:      make(map[string]metricMeta),
		tracks:     make(map[string]*Track),
		ledger:     make(map[Feature]*LedgerEntry),
		LinkEvents: true,
	}
}

// key canonicalizes (name, labels) and registers the metadata.
func (r *Recorder) key(name string, labels []Label) string {
	if len(labels) == 0 {
		if _, ok := r.metas[name]; !ok {
			r.metas[name] = metricMeta{name: name}
		}
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	for _, l := range ls {
		b.WriteByte(0xff)
		b.WriteString(l.Key)
		b.WriteByte(0xfe)
		b.WriteString(l.Value)
	}
	k := b.String()
	if _, ok := r.metas[k]; !ok {
		r.metas[k] = metricMeta{name: name, labels: ls}
	}
	return k
}

// Counter returns (creating on first use) the counter with the given name
// and labels.
func (r *Recorder) Counter(name string, labels ...Label) *Counter {
	k := r.key(name, labels)
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating on first use) the gauge with the given name and
// labels.
func (r *Recorder) Gauge(name string, labels ...Label) *Gauge {
	k := r.key(name, labels)
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating on first use) the histogram with the given
// name, bucket layout, and labels. The layout must be one of the package's
// fixed layouts (or at least identical across calls for the same name).
func (r *Recorder) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	k := r.key(name, labels)
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{buckets: buckets, counts: make([]uint64, len(buckets)+1)}
		r.hists[k] = h
	}
	return h
}

// Event appends one structured record to the event log.
func (r *Recorder) Event(t float64, kind string, fields ...Field) {
	r.events = append(r.events, Event{T: t, Kind: kind, Fields: fields})
}

// Events returns the event log in append (engine) order.
func (r *Recorder) Events() []Event { return r.events }

// StartSpan opens a span at virtual time t under parent (nil for a root).
func (r *Recorder) StartSpan(name string, parent *Span, t float64) *Span {
	s := &Span{r: r, id: r.nextID, par: -1, name: name, start: t}
	r.nextID++
	if parent != nil {
		s.par = parent.id
	}
	return s
}

// End closes the span at virtual time t, recording it and appending a "span"
// event. Ending twice is a no-op.
func (s *Span) End(t float64, tags ...Label) {
	if s.ended {
		return
	}
	s.ended = true
	if s.feat != "" {
		e := s.r.entry(s.feat)
		e.Spans++
		e.VirtualSeconds += t - s.start
	}
	rec := SpanRecord{ID: s.id, Parent: s.par, Name: s.name, Start: s.start, End: t, Tags: tags}
	s.r.spans = append(s.r.spans, rec)
	fields := []Field{
		F("name", s.name), F("id", s.id), F("parent", s.par),
		F("start", s.start), F("end", t), F("dur", t-s.start),
	}
	for _, tag := range tags {
		fields = append(fields, F(tag.Key, tag.Value))
	}
	s.r.Event(s.start, "span", fields...)
}

// Spans returns the completed spans in end order.
func (r *Recorder) Spans() []SpanRecord { return r.spans }

// track returns (creating on first use) the named counter track.
func (r *Recorder) track(name string) *Track {
	tr, ok := r.tracks[name]
	if !ok {
		tr = &Track{Name: name}
		r.tracks[name] = tr
	}
	return tr
}

// Sample appends one (t, v) point to the named counter track.
func (r *Recorder) Sample(name string, t, v float64) { r.track(name).sample(t, v) }

// Tracks returns every counter track, sorted by name.
func (r *Recorder) Tracks() []*Track {
	names := make([]string, 0, len(r.tracks))
	for n := range r.tracks {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Track, len(names))
	for i, n := range names {
		out[i] = r.tracks[n]
	}
	return out
}

// ---- Probe hooks (structural implementations of flownet.Probe etc.) ----

// LinkSample records one link's utilization and active-flow count at a
// waterfill rebalance. Implements the flownet.Probe interface.
func (r *Recorder) LinkSample(t float64, link string, util float64, flows int) {
	tr := r.track(link)
	tr.isLink = true
	tr.sample(t, util)
	if r.LinkEvents {
		r.Event(t, "link", F("link", link), F("util", util), F("flows", flows))
	}
}

// Rebalanced records one waterfill pass over a component of the flow
// network. Implements the flownet.Probe interface.
func (r *Recorder) Rebalanced(t float64, links, flows, active int) {
	r.AttributeEvent(FeatureBaseline)
	r.Counter("flownet_rebalances_total").Inc()
	r.Histogram("flownet_rebalance_links", CountBuckets).Observe(float64(links))
	r.Histogram("flownet_rebalance_flows", CountBuckets).Observe(float64(flows))
	r.Sample("flownet.active", t, float64(active))
}

// RecordOp ingests one completed CUDA op record.
func (r *Recorder) RecordOp(kind, name string, device int, stream string, start, end float64, bytes int64) {
	r.AttributeEvent(FeatureBaseline)
	kl := L("kind", kind)
	r.Counter("cudart_ops_total", kl).Inc()
	r.Counter("cudart_op_bytes_total", kl).Add(float64(bytes))
	r.Histogram("cudart_op_seconds", SecondsBuckets, kl).Observe(end - start)
	r.Event(end, "op",
		F("name", name), F("op", kind), F("device", device), F("stream", stream),
		F("start", start), F("end", end), F("bytes", bytes))
}

// MPIRetry records one timed-out-and-aborted send attempt.
func (r *Recorder) MPIRetry(t float64, name string, attempt int) {
	r.AttributeEvent(FeatureReliable)
	r.Counter("mpi_retries_total").Inc()
	r.Event(t, "retry", F("name", name), F("attempt", attempt))
}

// MPIRetryExhausted records a send whose retry budget ran out: the final
// attempt runs without a deadline (it is never aborted), so the transfer can
// take arbitrarily long on a crawling link. Emitted when that final attempt
// starts.
func (r *Recorder) MPIRetryExhausted(t float64, name string, attempts int) {
	r.AttributeEvent(FeatureReliable)
	r.Counter("mpi_retry_exhausted_total").Inc()
	r.Event(t, "retry_exhausted", F("name", name), F("attempts", attempts))
}

// MPIProtocol records one reliable-delivery protocol action (drop, corrupt,
// dup, dedup, retransmit, nack, ackdrop, exhausted). link may be empty for
// end-to-end actions not attributable to a single link.
func (r *Recorder) MPIProtocol(t float64, kind, link string, src, dst int, seq uint64, attempt int) {
	r.AttributeEvent(FeatureReliable)
	r.Counter("mpi_protocol_total", L("kind", kind)).Inc()
	r.Event(t, "proto",
		F("proto", kind), F("link", link), F("src", src), F("dst", dst),
		F("seq", seq), F("attempt", attempt))
}

// LinkQuarantine records a health-gate transition for one link: action is
// "enter" or "exit", score the EWMA badness at the transition.
func (r *Recorder) LinkQuarantine(t float64, link, action string, score float64) {
	r.AttributeEvent(FeatureAdapt)
	r.Counter("link_quarantine_total", L("action", action)).Inc()
	r.Event(t, "quarantine", F("link", link), F("action", action), F("score", score))
}

// VerifyRound records one end-to-end halo-verification round that found bad
// quadrants and re-exchanged them.
func (r *Recorder) VerifyRound(t float64, iter, round, bad int, forced bool) {
	r.AttributeEvent(FeatureVerify)
	r.Counter("verify_reexchanges_total").Add(float64(bad))
	r.Event(t, "verify", F("iter", iter), F("round", round), F("bad", bad), F("forced", forced))
}

// FaultApplied records one applied fault action.
func (r *Recorder) FaultApplied(t float64, kind, desc string) {
	r.AttributeEvent(FeatureBaseline)
	r.Counter("faults_total", L("kind", kind)).Inc()
	r.Event(t, "fault", F("fault", kind), F("desc", desc))
}
