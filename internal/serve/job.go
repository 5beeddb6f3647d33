package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nodeaware/stencil/internal/jobspec"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Job is one submitted simulation. Result and event bytes are deterministic
// functions of the spec (virtual-time quantities only); the wall-clock
// timestamps live solely in the status view, which is never cached.
type Job struct {
	ID        string
	Tenant    string
	Spec      *jobspec.Spec
	Hash      string // content address of the whole job (result-cache key)
	SetupHash string // content address of the setup phases (setup-cache key)

	mu   sync.Mutex
	cond *sync.Cond

	// preempt is the cooperative cancellation flag for running jobs. The
	// HTTP goroutine sets it (requestPreempt); the engine's coordinator
	// polls it at every iteration safe point via stencil.Config.Preempt and
	// stops the run at the next boundary.
	preempt atomic.Bool
	// deadlineHit records that the run's preempt poll fired because the job
	// exceeded its deadline (not because of a /cancel): the worker finalizes
	// such a run as failed, never cancelled, and caches nothing.
	deadlineHit atomic.Bool

	// deadline is the job's wall-clock completion deadline (zero = none),
	// set at admission from spec.DeadlineSeconds.
	deadline time.Time
	// attempts counts how many times a worker started this job; >1 only when
	// crash recovery re-ran the job.
	attempts int

	state       State
	err         string
	resultCache bool // served from the whole-result cache
	setupCache  bool // placement injected from the setup cache

	result []byte   // deterministic result document (JSON)
	lines  [][]byte // NDJSON stream: lifecycle lines + telemetry events
	closed bool     // stream complete

	submitted time.Time
	started   time.Time
	finished  time.Time

	// spans is the wall-clock trace of this job's lifecycle phases, served
	// by /v1/jobs/{id}/trace. Host-side and operator-facing only: never
	// cached, never part of the deterministic result or event bytes.
	spans []TraceSpan

	// recovered marks a job rebuilt from the journal after a restart.
	recovered bool
}

func newJob(id, tenant string, spec *jobspec.Spec, hash, setupHash string, now time.Time) *Job {
	j := &Job{
		ID:        id,
		Tenant:    tenant,
		Spec:      spec,
		Hash:      hash,
		SetupHash: setupHash,
		state:     StateQueued,
		submitted: now,
	}
	j.cond = sync.NewCond(&j.mu)
	j.appendLineLocked(streamLine{Kind: "state", State: string(StateQueued), Job: id})
	return j
}

// streamLine is one lifecycle record on the NDJSON stream (telemetry events
// are appended as raw pre-encoded lines).
type streamLine struct {
	Kind  string `json:"kind"`
	Job   string `json:"job,omitempty"`
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	Cache string `json:"cache,omitempty"`
}

func (j *Job) appendLineLocked(l streamLine) {
	b, err := json.Marshal(l)
	if err != nil {
		panic(fmt.Sprintf("serve: stream line marshal: %v", err))
	}
	j.lines = append(j.lines, append(b, '\n'))
	j.cond.Broadcast()
}

// start transitions queued → running and returns how long the job waited in
// the queue plus the attempt number. The wait also becomes the trace's first
// span.
func (j *Job) start(now time.Time) (wait time.Duration, attempt int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.started = now
	j.attempts++
	j.appendSpanLocked("queue-wait", j.submitted, now, "")
	j.appendLineLocked(streamLine{Kind: "state", State: string(StateRunning), Job: j.ID})
	return now.Sub(j.submitted), j.attempts
}

// addSpan appends one wall-clock span to the job's trace.
func (j *Job) addSpan(name string, start, end time.Time, detail string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendSpanLocked(name, start, end, detail)
}

func (j *Job) appendSpanLocked(name string, start, end time.Time, detail string) {
	j.spans = append(j.spans, TraceSpan{
		Name:            name,
		Detail:          detail,
		Start:           start,
		End:             end,
		DurationSeconds: end.Sub(start).Seconds(),
	})
}

// trace snapshots the job's wall-clock trace document.
func (j *Job) trace() JobTrace {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobTrace{
		Schema:   TraceSchema,
		TraceID:  TraceID(j.Hash, j.ID),
		Job:      j.ID,
		Tenant:   j.Tenant,
		SpecHash: j.Hash,
		State:    j.state,
		Spans:    append([]TraceSpan(nil), j.spans...),
	}
}

// finish completes the job: a result document plus the run's telemetry
// events (NDJSON, already encoded), or an error.
func (j *Job) finish(now time.Time, result, events []byte, runErr error, fromResultCache, fromSetupCache bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = now
	j.resultCache = fromResultCache
	j.setupCache = fromSetupCache
	if runErr != nil {
		j.state = StateFailed
		j.err = runErr.Error()
		j.appendLineLocked(streamLine{Kind: "state", State: string(StateFailed), Job: j.ID, Error: j.err})
	} else {
		j.state = StateDone
		j.result = result
		if len(events) > 0 {
			// Telemetry events are one JSON object per line already.
			j.lines = append(j.lines, events)
		}
		j.appendLineLocked(streamLine{Kind: "state", State: string(StateDone), Job: j.ID, Cache: j.cacheString()})
	}
	j.closed = true
	j.cond.Broadcast()
}

// cancel transitions queued → cancelled. The caller must have already
// removed the job from the queue, so the transition cannot race a start.
// Running jobs are cancelled cooperatively instead: see requestPreempt.
func (j *Job) cancel(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateCancelled
	j.finished = now
	j.appendLineLocked(streamLine{Kind: "state", State: string(StateCancelled), Job: j.ID})
	j.closed = true
	j.cond.Broadcast()
	return true
}

// requestPreempt arms the cooperative cancellation flag for a job that is
// running (or was just popped by a worker and is about to run — the queued
// state whose queue removal already failed). The engine observes the flag at
// its next iteration safe point and the worker then finalizes the job as
// cancelled. Terminal jobs report false. Best-effort by construction: a job
// whose final iteration already passed the last poll finishes done.
func (j *Job) requestPreempt() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued && j.state != StateRunning {
		return false
	}
	j.preempt.Store(true)
	return true
}

// finishCancelled finalizes a preempted run: running → cancelled. The
// partial run's bytes are discarded (never cached, never served).
func (j *Job) finishCancelled(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateCancelled
	j.finished = now
	j.appendLineLocked(streamLine{Kind: "state", State: string(StateCancelled), Job: j.ID})
	j.closed = true
	j.cond.Broadcast()
}

func (j *Job) cacheString() string {
	switch {
	case j.resultCache:
		return "result"
	case j.setupCache:
		return "setup"
	}
	return ""
}

// Status is the API view of a job.
type Status struct {
	ID        string        `json:"id"`
	Tenant    string        `json:"tenant,omitempty"`
	State     State         `json:"state"`
	SpecHash  string        `json:"spec_hash"`
	SetupHash string        `json:"setup_hash"`
	Cache     string        `json:"cache,omitempty"` // "result", "setup", or ""
	Error     string        `json:"error,omitempty"`
	Submitted time.Time     `json:"submitted"`
	Started   *time.Time    `json:"started,omitempty"`
	Finished  *time.Time    `json:"finished,omitempty"`
	Deadline  *time.Time    `json:"deadline,omitempty"`
	Attempts  int           `json:"attempts,omitempty"` // >1 only when crash recovery re-ran the job
	Recovered bool          `json:"recovered,omitempty"`
	Spec      *jobspec.Spec `json:"spec,omitempty"`
}

// status snapshots the job for the API.
func (j *Job) status(withSpec bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.ID,
		Tenant:    j.Tenant,
		State:     j.state,
		SpecHash:  j.Hash,
		SetupHash: j.SetupHash,
		Cache:     j.cacheString(),
		Error:     j.err,
		Submitted: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if !j.deadline.IsZero() {
		t := j.deadline
		st.Deadline = &t
	}
	st.Attempts = j.attempts
	st.Recovered = j.recovered
	if withSpec {
		st.Spec = j.Spec
	}
	return st
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the result document once the job is done.
func (j *Job) Result() ([]byte, State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state
}

// Wait blocks until the job reaches a terminal state and returns it.
func (j *Job) Wait() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	for !j.closed {
		j.cond.Wait()
	}
	return j.state
}

// Stream writes the job's NDJSON event stream to w, flushing as lines
// arrive, and returns when the job reaches a terminal state (or w fails).
// For finished jobs it replays the full stream.
func (j *Job) Stream(w io.Writer) error {
	flusher, _ := w.(http.Flusher)
	next := 0
	for {
		j.mu.Lock()
		for next >= len(j.lines) && !j.closed {
			j.cond.Wait()
		}
		batch := j.lines[next:]
		next = len(j.lines)
		closed := j.closed
		j.mu.Unlock()

		for _, line := range batch {
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if closed && next >= j.lineCount() {
			return nil
		}
	}
}

func (j *Job) lineCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.lines)
}
