package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"time"

	"github.com/nodeaware/stencil/internal/telemetry"
)

// TraceSchema identifies the /v1/jobs/{id}/trace document layout.
const TraceSchema = "stencilserve-trace/1"

// TraceID derives the deterministic request-scoped trace identifier for a
// job: a short digest of the jobspec content hash and the job ID. Two
// submissions of the same spec share the hash component, so traces of
// identical work correlate across jobs while each job keeps a distinct ID.
func TraceID(specHash, jobID string) string {
	sum := sha256.Sum256([]byte(TraceSchema + "\n" + specHash + "\n" + jobID))
	return hex.EncodeToString(sum[:8])
}

// TraceSpan is one wall-clock phase of a job's lifecycle: queue wait, cache
// lookup, setup, engine run, verify, encode. These are host-side timings for
// operators — strictly separate from the engine's virtual-time telemetry
// spans, which never contain wall-clock values. Trace spans live only in the
// job registry and the /trace endpoint; they are never cached and never
// enter result or event bytes.
type TraceSpan struct {
	Name            string    `json:"name"`
	Detail          string    `json:"detail,omitempty"`
	Start           time.Time `json:"start"`
	End             time.Time `json:"end"`
	DurationSeconds float64   `json:"duration_s"`
}

// JobTrace is the /v1/jobs/{id}/trace document.
type JobTrace struct {
	Schema   string      `json:"schema"`
	TraceID  string      `json:"trace_id"`
	Job      string      `json:"job"`
	Tenant   string      `json:"tenant,omitempty"`
	SpecHash string      `json:"spec_hash"`
	State    State       `json:"state"`
	Spans    []TraceSpan `json:"spans"`
}

// WritePerfetto emits the trace as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps relative to the first span), loadable in
// chrome://tracing or https://ui.perfetto.dev.
func (t *JobTrace) WritePerfetto(w io.Writer) error {
	var origin time.Time
	for _, s := range t.Spans {
		if origin.IsZero() || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	events := []telemetry.TraceEvent{{
		Name:  "process_name",
		Phase: "M",
		PID:   1,
		Args:  map[string]any{"name": "stencilserve " + t.Job},
	}}
	for _, s := range t.Spans {
		ev := telemetry.TraceEvent{
			Name:  s.Name,
			Cat:   "serve",
			Phase: "X",
			TS:    float64(s.Start.Sub(origin)) / float64(time.Microsecond),
			Dur:   float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			PID:   1,
			TID:   t.TraceID,
		}
		if s.Detail != "" {
			ev.Args = map[string]any{"detail": s.Detail}
		}
		events = append(events, ev)
	}
	return telemetry.WriteTraceEvents(w, events)
}

// lapClock stamps successive wall-clock phases of a run onto a span sink.
// Both the clock and the sink may be nil (library callers of runJob that
// want no tracing), in which case every lap is a no-op.
type lapClock struct {
	now  func() time.Time
	emit func(name string, start, end time.Time, detail string)
	mark time.Time
}

func newLapClock(now func() time.Time, emit func(name string, start, end time.Time, detail string)) *lapClock {
	c := &lapClock{now: now, emit: emit}
	if c.now != nil && c.emit != nil {
		c.mark = c.now()
	}
	return c
}

// lap closes the phase that began at the previous lap (or construction) and
// starts the next one. Safe on a nil clock.
func (c *lapClock) lap(name, detail string) {
	if c == nil || c.now == nil || c.emit == nil {
		return
	}
	now := c.now()
	c.emit(name, c.mark, now, detail)
	c.mark = now
}
