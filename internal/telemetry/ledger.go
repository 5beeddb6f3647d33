// Feature cost ledger: attribution of virtual time, event counts, and host
// allocations to the optional subsystem ("feature") that caused them.
//
// The ledger answers "what does each layer cost?" — the question the
// benchmark matrix (stencilbench -experiment matrix) and the ROADMAP's
// raw-speed work need answered before attacking the top costs. It is a pure
// aggregation inside the Recorder: attributing a span, event, or allocation
// to a feature never changes what Snapshot, WriteEvents, or WritePrometheus
// emit, so every committed golden (METRICS.json, faultsim transcripts,
// SERVE-smoke.json) is byte-identical with the ledger on or off.
//
// Attribution is deterministic for the same reason the rest of the recorder
// is: entries are keyed by a fixed feature list, fed only from engine event
// context, and hold only virtual-time quantities plus instrumented (not
// sampled) allocation counts.
package telemetry

// Feature names one attributable subsystem. The zero value ("") means
// unattributed: spans without a feature do not feed the ledger.
type Feature string

// The seven attributable features. FeatureBaseline is the bare exchange
// machinery (setup, partition/placement, the per-iteration exchange itself);
// the others are the optional layers stacked on top. FeatureSelf accounts
// for the telemetry recorder's own retained state.
const (
	FeatureBaseline Feature = "baseline"
	FeatureReliable Feature = "reliable"
	FeatureVerify   Feature = "verify"
	FeatureOverlap  Feature = "overlap"
	FeatureRecovery Feature = "recovery"
	FeatureAdapt    Feature = "adapt"
	FeatureSelf     Feature = "telemetry-self"
)

// Features is the fixed export order of the ledger. Every Ledger() call
// returns exactly these entries in exactly this order, so downstream
// consumers (MATRIX.json and its byte-exact golden test) see a stable schema.
var Features = []Feature{
	FeatureBaseline, FeatureReliable, FeatureVerify, FeatureOverlap,
	FeatureRecovery, FeatureAdapt, FeatureSelf,
}

// LedgerEntry is one feature's accumulated cost.
//
// VirtualSeconds is the sum of feature-tagged span durations (inclusive:
// nested spans of the same feature each contribute their full duration, so
// instrumentation sites tag the finest span that covers the work, not every
// enclosing one). Events counts hook invocations and attributed event-log
// records. HostAllocs/HostAllocBytes count instrumented host-side buffer
// allocations (checkpoint copies, repair buffers, reliable-envelope
// payload copies) — instrumented at the allocation site, not sampled from
// the Go runtime, so they are bit-identical across runs and worker counts.
type LedgerEntry struct {
	Feature        Feature `json:"feature"`
	Spans          int     `json:"spans"`
	VirtualSeconds float64 `json:"virtual_seconds"`
	Events         int     `json:"events"`
	HostAllocs     int     `json:"host_allocs"`
	HostAllocBytes int64   `json:"host_alloc_bytes"`
}

// entry returns (creating on first use) the mutable ledger entry for f.
func (r *Recorder) entry(f Feature) *LedgerEntry {
	e, ok := r.ledger[f]
	if !ok {
		e = &LedgerEntry{Feature: f}
		r.ledger[f] = e
	}
	return e
}

// AttributeSeconds adds virtual seconds to a feature's ledger entry. Span
// ends call this automatically for feature-tagged spans; hooks that know a
// duration without a span (e.g. verify rounds) call it directly.
func (r *Recorder) AttributeSeconds(f Feature, s float64) {
	if f == "" {
		return
	}
	r.entry(f).VirtualSeconds += s
}

// AttributeEvent counts one feature-attributed event (a hook invocation or
// event-log record caused by the feature).
func (r *Recorder) AttributeEvent(f Feature) {
	if f == "" {
		return
	}
	r.entry(f).Events++
}

// AttributeAlloc records one instrumented host allocation of the given size
// on behalf of a feature.
func (r *Recorder) AttributeAlloc(f Feature, bytes int64) {
	if f == "" {
		return
	}
	e := r.entry(f)
	e.HostAllocs++
	e.HostAllocBytes += bytes
}

// StartSpanFeature opens a span exactly like StartSpan and additionally tags
// it with a feature: when the span ends, its duration and count are
// attributed to that feature's ledger entry. The feature is ledger-internal
// — it does not appear in the span's event-log record or in Snapshot, so
// exports stay byte-identical to untagged spans.
func (r *Recorder) StartSpanFeature(name string, parent *Span, t float64, f Feature) *Span {
	s := r.StartSpan(name, parent, t)
	s.feat = f
	return s
}

// Ledger returns the seven feature entries in Features order. Entries for
// features that never attributed anything are present with zero values, so
// consumers can rely on the full schema. The telemetry-self entry is
// computed at call time from the recorder's retained state: it counts the
// records the recorder itself holds (its host-memory cost) and estimates
// their retained bytes; its virtual seconds are zero by construction — the
// recorder is passive and can never add virtual time.
func (r *Recorder) Ledger() []LedgerEntry {
	out := make([]LedgerEntry, 0, len(Features))
	for _, f := range Features {
		if f == FeatureSelf {
			out = append(out, r.selfEntry())
			continue
		}
		if e, ok := r.ledger[f]; ok {
			out = append(out, *e)
		} else {
			out = append(out, LedgerEntry{Feature: f})
		}
	}
	return out
}

// selfEntry sizes the recorder's own retained state deterministically: the
// same run always holds the same records, so the estimate is bit-identical
// across reruns and worker counts.
func (r *Recorder) selfEntry() LedgerEntry {
	e := LedgerEntry{Feature: FeatureSelf}
	e.Events = len(r.events)
	e.Spans = len(r.spans)
	var bytes int64
	for i := range r.events {
		ev := &r.events[i]
		bytes += 48 + int64(len(ev.Kind))
		for _, f := range ev.Fields {
			bytes += 32 + int64(len(f.Key))
			if s, ok := f.Value.(string); ok {
				bytes += int64(len(s))
			}
		}
	}
	for i := range r.spans {
		bytes += 64 + int64(len(r.spans[i].Name)) + 16*int64(len(r.spans[i].Tags))
	}
	for _, tr := range r.tracks {
		bytes += int64(len(tr.Name)) + 16*int64(len(tr.Times))
	}
	for k, h := range r.hists {
		bytes += int64(len(k)) + 8*int64(len(h.buckets)+len(h.counts))
	}
	for k := range r.counters {
		bytes += int64(len(k)) + 8
	}
	for k := range r.gauges {
		bytes += int64(len(k)) + 8
	}
	e.HostAllocs = len(r.counters) + len(r.gauges) + len(r.hists) + len(r.tracks) + e.Events + e.Spans
	e.HostAllocBytes = bytes
	return e
}

// The hook→feature mapping for the Recorder's structural probe methods,
// applied inside each method in telemetry.go:
//
//	MPIRetry, MPIRetryExhausted, MPIProtocol → reliable
//	VerifyRound                              → verify
//	LinkQuarantine                           → adapt (health gating feeds
//	                                           adaptive re-specialization)
//	FaultApplied, RecordOp, Rebalanced       → baseline (substrate)
