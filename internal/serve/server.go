// Package serve is stencilserve's core: a multi-tenant simulation job
// service over the deterministic stencil engine.
//
// Jobs are jobspec.Spec documents submitted over HTTP/JSON. A sharded worker
// pool runs each job on a fresh, isolated engine; per-tenant fair queueing
// bounds how much one tenant can delay another, and a full queue refuses new
// submissions (429 + Retry-After) before they cost a journal write. A job
// whose run panics fails on that first panic: the run is a pure function of
// the spec, so a retry would only panic again.
//
// Determinism is the load-bearing property. The engine maps a normalized
// spec to byte-identical result and event bytes on every run, which makes
// two cache layers correct by construction:
//
//   - the result cache (key: jobspec.Hash) replays whole result documents
//     without running an engine at all, and
//   - the setup cache (key: jobspec.SetupHash) reuses the phase-2 placement
//     across jobs that differ only in scenario or run length, injected via
//     stencil.Config.PresetPlacement. The QAP solver is deterministic, so an
//     injected placement reproduces the computed one bit-exactly.
//
// The same property makes crash recovery provably correct rather than
// best-effort: with Config.DataDir set, a write-ahead journal records every
// acknowledged job (fsync'd before the ack) and both caches spill to disk,
// so a restart replays the journal, rehydrates the caches, and re-enqueues
// every acknowledged-but-incomplete job — whose re-run returns bytes
// identical to what the crashed process would have produced.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nodeaware/stencil/internal/jobspec"
	"github.com/nodeaware/stencil/internal/telemetry"
)

// Config shapes a Server.
type Config struct {
	// Workers is the worker-pool size; 0 uses GOMAXPROCS. Negative starts
	// no workers at all, so jobs stay queued — a test hook for exercising
	// queue-state transitions deterministically.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs across
	// all tenants; 0 defaults to DefaultQueueDepth. Submissions beyond it get
	// 429.
	QueueDepth int
	// ResultCacheEntries and SetupCacheEntries bound the two caches;
	// 0 defaults to 4096 each.
	ResultCacheEntries int
	SetupCacheEntries  int

	// DataDir enables durability: the write-ahead job journal plus disk
	// spill of both caches live here, and Open replays them on boot. Empty
	// means in-memory only (a crash loses everything, as before).
	DataDir string

	// CompactBytes triggers an automatic journal compaction whenever the
	// file grows past this many bytes; 0 disables auto-compaction (the
	// explicit CompactJournal call and the -journal-compact flag remain).
	CompactBytes int64
}

// Server owns the queue, the worker pool, the job registry, the caches, and
// (when durable) the journal and disk store.
type Server struct {
	cfg     Config
	queue   *fairQueue
	results *Cache[resultEntry]
	setups  *Cache[setupEntry]

	journal *journal // nil when in-memory only
	store   *store   // nil when in-memory only

	// compactBusy serializes automatic compactions; compactions counts the
	// completed ones.
	compactBusy atomic.Bool
	compactions atomic.Int64

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for listing
	nextID int

	// The telemetry recorder is not thread-safe (it is built for the
	// engine's single-threaded event loop), so every access goes through
	// telMu.
	telMu sync.Mutex
	tel   *telemetry.Recorder

	draining bool
	killed   atomic.Bool // Kill(): in-process SIGKILL for crash tests
	wg       sync.WaitGroup

	recovery RecoveryStats

	// now is the wall clock, swappable in tests.
	now func() time.Time

	// runFn executes one job on the engine; swappable in tests (the
	// worker-panic path injects panics through it).
	runFn func(spec *jobspec.Spec, specHash string, preset [][]int, preempt func() bool, lap *lapClock) (*runOutcome, error)
}

// setupEntry is a setup-cache value: the phase-2 placement.
type setupEntry struct {
	assignments [][]int
}

// NewServer starts the worker pool and returns a ready server. It panics if
// Config.DataDir is set and unusable; durable callers should use Open.
func NewServer(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds a server, replaying the data directory (journal + cache
// spill) when one is configured, and then starts the worker pool — so
// recovered jobs are re-enqueued before the first worker pops.
func Open(cfg Config) (*Server, error) {
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	} else if cfg.Workers < 0 {
		cfg.Workers = 0
	}
	s := &Server{
		cfg:     cfg,
		queue:   newFairQueue(cfg.QueueDepth),
		results: NewCache[resultEntry](cfg.ResultCacheEntries),
		setups:  NewCache[setupEntry](cfg.SetupCacheEntries),
		jobs:    make(map[string]*Job),
		tel:     telemetry.New(),
		now:     time.Now,
		runFn:   runJob,
	}
	if cfg.DataDir != "" {
		if err := s.recoverFromDisk(cfg.DataDir); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// shedRetryAfter estimates a client backoff from the backlog: one second
// plus a second per 64 queued jobs per worker — rough, monotone in load,
// and cheap.
func shedRetryAfter(depth, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	return time.Second * time.Duration(1+depth/(64*workers))
}

// Submit validates, journals, and enqueues a job. It is the programmatic
// form of POST /v1/jobs; the HTTP layer maps an AdmissionError to 429 (503
// when draining) with Retry-After, and any other error to 400.
// When a journal is configured, Submit returns only after the job's
// submitted record is fsync'd — the durability contract: an acknowledged
// job survives a crash.
func (s *Server) Submit(tenant string, spec *jobspec.Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	if tenant == "" {
		tenant = spec.Tenant
	}
	if tenant == "" {
		tenant = "anonymous"
	}
	if err := jobspec.ValidTenant(tenant); err != nil {
		return nil, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	setupHash, err := spec.SetupHash()
	if err != nil {
		return nil, err
	}
	now := s.now()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, &AdmissionError{Code: CodeDraining, Tenant: tenant, Err: ErrDraining, RetryAfter: time.Second}
	}
	s.mu.Unlock()

	// A full queue refuses before the journal write, so a refused submit
	// costs no fsync; push's own bound catches the submits that race past.
	if depth, full := s.queue.full(); full {
		return nil, s.queueFull(tenant, depth)
	}

	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	j := newJob(id, tenant, spec, hash, setupHash, now)
	if spec.DeadlineSeconds > 0 {
		j.deadline = now.Add(time.Duration(spec.DeadlineSeconds * float64(time.Second)))
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	// Durability point: the submitted record (with the full normalized spec)
	// is fsync'd before the submit is acknowledged. Group commit amortizes
	// the fsync across concurrent submitters.
	if s.journal != nil {
		spec0, merr := json.Marshal(spec)
		if merr == nil {
			merr = s.journal.append(journalRecord{
				Rec: recSubmitted, Job: id, Tenant: tenant,
				SpecHash: hash, SetupHash: setupHash,
				Spec: spec0, UnixNano: nowNano(s.now),
			}, true)
		}
		if merr != nil {
			s.unregister(id)
			return nil, fmt.Errorf("serve: journal submit: %w", merr)
		}
		s.count("stencilserve_journal_records_total")
	}

	if err := s.queue.push(j); err != nil {
		// Roll back: compensating cancel record (non-durable — if it is
		// lost, recovery re-runs a job nobody is waiting for; wasteful but
		// correct) and registry removal.
		s.journalAppend(journalRecord{Rec: recCancelled, Job: id, SpecHash: hash, Tenant: tenant, UnixNano: nowNano(s.now)})
		s.unregister(id)
		if errors.Is(err, ErrDraining) {
			return nil, &AdmissionError{Code: CodeDraining, Tenant: tenant, Err: ErrDraining, RetryAfter: time.Second}
		}
		return nil, s.queueFull(tenant, s.queue.depth())
	}
	s.count("stencilserve_jobs_submitted_total", telemetry.Label{Key: "tenant", Value: tenant})
	return j, nil
}

// queueFull counts and builds the 429 for a submit refused by a full queue.
func (s *Server) queueFull(tenant string, depth int) *AdmissionError {
	s.count("stencilserve_rejections_total",
		telemetry.Label{Key: "code", Value: CodeQueueFull},
		telemetry.Label{Key: "tenant", Value: tenant})
	return &AdmissionError{
		Code: CodeQueueFull, Tenant: tenant, Err: ErrQueueFull,
		QueueDepth: depth, RetryAfter: shedRetryAfter(depth, s.cfg.Workers),
	}
}

// unregister removes a job that never made it into the queue.
func (s *Server) unregister(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// journalAppend writes a non-durable record, ignoring journal absence and
// post-kill errors (both mean: behave like the write never happened).
func (s *Server) journalAppend(rec journalRecord) {
	if s.journal == nil {
		return
	}
	if err := s.journal.append(rec, false); err == nil {
		s.count("stencilserve_journal_records_total")
	}
	s.maybeCompact()
}

// Job returns a registered job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists job statuses in submission order, optionally filtered by
// tenant.
func (s *Server) Jobs(tenant string) []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		if tenant != "" && j.Tenant != tenant {
			continue
		}
		out = append(out, j.status(false))
	}
	return out
}

// Cancel cancels a queued or running job; terminal jobs report false.
// Queued jobs transition to cancelled immediately. Running jobs are
// preempted cooperatively: the flag set here is polled by the engine's
// coordinator at every iteration safe point, the run stops at the next
// boundary, and the worker finalizes the cancelled state — so true for a
// running job means cancellation was accepted, and the status still reads
// "running" until the engine reaches that boundary.
func (s *Server) Cancel(id string) (Status, bool, error) {
	j, ok := s.Job(id)
	if !ok {
		return Status{}, false, fmt.Errorf("serve: no job %q", id)
	}
	// Remove-then-cancel: once remove succeeds no worker can pop the job,
	// so the queued→cancelled transition cannot race a start.
	if s.queue.remove(j) && j.cancel(s.now()) {
		s.journalAppend(journalRecord{Rec: recCancelled, Job: j.ID, SpecHash: j.Hash, Tenant: j.Tenant, UnixNano: nowNano(s.now)})
		s.count("stencilserve_jobs_cancelled_total")
		return j.status(false), true, nil
	}
	// The job left the queue: it is running (or a worker just popped it),
	// or it already finished. Arm the preemption flag in the former case.
	if j.requestPreempt() {
		return j.status(false), true, nil
	}
	return j.status(false), false, nil
}

// Drain stops intake (new submissions get 503), lets the workers finish
// every queued and running job, flushes and closes the journal, and returns
// when the pool is idle. The SIGTERM path of cmd/stencilserve.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.queue.close()
	s.wg.Wait()
	if s.journal != nil {
		s.journal.close()
	}
}

// Kill is the in-process SIGKILL for crash tests: from this instant the
// server behaves like a dead process — no journal or store write lands, no
// job state transition commits, queued jobs are dropped, and running engine
// iterations are abandoned at the next safe point. It returns once every
// worker has exited. A fresh Open on the same DataDir must then recover
// every acknowledged job.
func (s *Server) Kill() {
	s.mu.Lock() // orders the flag against maybeCompact's s.wg.Add
	s.killed.Store(true)
	s.mu.Unlock()
	if s.journal != nil {
		s.journal.kill()
	}
	if s.store != nil {
		s.store.kill()
	}
	s.queue.kill()
	s.wg.Wait()
}

// worker pops jobs in tenant-fair order until the queue closes and drains.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.execute(j)
	}
}

// finalize applies a terminal transition with its journal record — every
// completion path funnels through here so no exit leaves a job without its
// terminal journal state. A failed record carries the job's error, so a
// restart restores the reason along with the state.
func (s *Server) finalize(j *Job, rec string, apply func(now time.Time)) {
	now := s.now()
	apply(now)
	j.mu.Lock()
	msg := j.err
	j.mu.Unlock()
	s.journalAppend(journalRecord{Rec: rec, Job: j.ID, SpecHash: j.Hash, Tenant: j.Tenant, Error: msg, UnixNano: now.UnixNano()})
}

// execute runs one job through the cache layers and the engine. Every phase
// is stamped onto the job's wall-clock trace (lapClock → j.addSpan) and the
// queue-wait and run-duration histograms; none of that timing can reach the
// cached result or event bytes, which stay pure functions of the spec.
func (s *Server) execute(j *Job) {
	// A panic out of the engine fails the job on the spot. The run is a pure
	// function of the spec, so a retry would panic again; the worker itself
	// survives, so the pool never shrinks.
	defer func() {
		r := recover()
		if r == nil || s.killed.Load() {
			return
		}
		s.finalize(j, recFailed, func(now time.Time) {
			j.finish(now, nil, nil, fmt.Errorf("serve: worker died: %v", r), false, false)
		})
		s.count("stencilserve_jobs_failed_total")
	}()
	if s.killed.Load() {
		return
	}
	// A queued job past its deadline fails without burning an engine run.
	if !j.deadline.IsZero() && s.now().After(j.deadline) {
		s.finalize(j, recFailed, func(now time.Time) {
			j.finish(now, nil, nil, errDeadline, false, false)
		})
		s.count("stencilserve_jobs_deadline_total")
		return
	}
	wait, attempt := j.start(s.now())
	s.observe("stencilserve_queue_wait_seconds", wait.Seconds())
	s.journalAppend(journalRecord{Rec: recStarted, Job: j.ID, SpecHash: j.Hash, Tenant: j.Tenant, Attempt: attempt, UnixNano: nowNano(s.now)})
	lap := newLapClock(s.now, j.addSpan)

	// Layer 1: whole-result cache. A hit replays the stored bytes — no
	// engine run at all. Correct because Hash determines the result bytes.
	if e, ok := s.results.Get(j.Hash); ok {
		lap.lap("cache-lookup", "result-hit")
		s.finalize(j, recCompleted, func(now time.Time) {
			j.finish(now, e.result, e.events, nil, true, false)
		})
		s.count("stencilserve_jobs_completed_total", telemetry.Label{Key: "cache", Value: "result"})
		return
	}

	// Layer 2: setup cache. A hit injects the cached phase-2 placement and
	// skips the QAP solve; the run itself still happens.
	var preset [][]int
	usedSetup := false
	if j.Spec.CacheableSetup() {
		if p, ok := s.setups.Get(j.SetupHash); ok {
			preset = p.assignments
			usedSetup = true
		}
	}
	if usedSetup {
		lap.lap("cache-lookup", "setup-hit")
	} else {
		lap.lap("cache-lookup", "miss")
	}

	// The preempt poll merges three stop reasons, each observed at the
	// engine's iteration safe point: a /cancel, the job's deadline, and a
	// Kill (crash simulation). Deadline hits are recorded so the outcome is
	// failed, not cancelled.
	preempt := func() bool {
		if j.preempt.Load() || s.killed.Load() {
			return true
		}
		if !j.deadline.IsZero() && s.now().After(j.deadline) {
			j.deadlineHit.Store(true)
			return true
		}
		return false
	}

	runStart := s.now()
	setupStart := runStart
	out, err := s.runFn(j.Spec, j.Hash, preset, preempt, lap)
	s.observe("stencilserve_run_seconds", s.now().Sub(runStart).Seconds())
	if s.killed.Load() {
		// Simulated process death: the run's outcome is discarded exactly as
		// a SIGKILL would have discarded it. Recovery re-runs the job.
		return
	}
	if err == errPreempted {
		if j.deadlineHit.Load() && !j.preempt.Load() {
			// The engine honored the deadline: the job fails (never
			// cancelled — nobody asked for it), partial bytes are never
			// cached.
			s.finalize(j, recFailed, func(now time.Time) {
				j.finish(now, nil, nil, errDeadline, false, usedSetup)
			})
			s.count("stencilserve_jobs_deadline_total")
			return
		}
		// The engine honored a mid-run /cancel: the job ends cancelled (not
		// failed), its partial bytes are never cached, and this worker is
		// immediately free for the next job.
		s.finalize(j, recCancelled, func(now time.Time) {
			j.finishCancelled(now)
		})
		s.count("stencilserve_jobs_cancelled_total")
		return
	}
	if err != nil {
		s.finalize(j, recFailed, func(now time.Time) {
			j.finish(now, nil, nil, err, false, usedSetup)
		})
		s.count("stencilserve_jobs_failed_total")
		return
	}

	// Spill before the in-memory Put: once the completed journal record can
	// be written, the result bytes are already durable, so recovery never
	// trusts a completed record whose payload is missing. A spill failure is
	// not fatal — the entry just will not survive a restart.
	if s.store != nil {
		s.store.putResult(j.Hash, resultEntry{result: out.result, events: out.events}, out.virtualSeconds)
		if !usedSetup && out.assignments != nil {
			s.store.putSetup(j.SetupHash, out.assignments, s.now().Sub(setupStart).Seconds())
		}
	}
	s.results.Put(j.Hash, resultEntry{result: out.result, events: out.events}, out.virtualSeconds)
	if !usedSetup && out.assignments != nil {
		s.setups.Put(j.SetupHash, setupEntry{assignments: out.assignments}, s.now().Sub(setupStart).Seconds())
	}
	s.observeVirtual(out.virtualSeconds)
	label := "none"
	if usedSetup {
		label = "setup"
	}
	s.finalize(j, recCompleted, func(now time.Time) {
		j.finish(now, out.result, out.events, nil, false, usedSetup)
	})
	s.count("stencilserve_jobs_completed_total", telemetry.Label{Key: "cache", Value: label})
}

// errDeadline marks a job preempted (or never started) because its
// wall-clock deadline passed.
var errDeadline = errors.New("serve: deadline exceeded")

// count bumps a server counter under the recorder mutex.
func (s *Server) count(name string, labels ...telemetry.Label) {
	s.telMu.Lock()
	s.tel.Counter(name, labels...).Inc()
	s.telMu.Unlock()
}

// observeVirtual accumulates simulated seconds served from real engine runs.
func (s *Server) observeVirtual(sec float64) {
	s.telMu.Lock()
	s.tel.Counter("stencilserve_virtual_seconds_total").Add(sec)
	s.telMu.Unlock()
}

// observe records one sample in a wall-clock latency histogram under the
// recorder mutex. Serve's recorder is operator-facing (scraped, never
// byte-gated), so host-dependent latencies are fine here — unlike engine
// recorders, which hold virtual-time quantities only.
func (s *Server) observe(name string, v float64) {
	s.telMu.Lock()
	s.tel.Histogram(name, telemetry.SecondsBuckets).Observe(v)
	s.telMu.Unlock()
}

// CacheStats reports both caches' cumulative hit/miss counters.
func (s *Server) CacheStats() (resultHits, resultMisses, setupHits, setupMisses int64) {
	resultHits, resultMisses, _ = s.results.Stats()
	setupHits, setupMisses, _ = s.setups.Stats()
	return
}

// Recovery reports what the boot-time replay rebuilt (zero value when no
// DataDir is configured or the directory was fresh).
func (s *Server) Recovery() RecoveryStats { return s.recovery }

// JournalStats is the exported view of the journal's append-side counters.
type JournalStats struct {
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	Syncs   int64 `json:"syncs"` // group commits: fsyncs, each covering >=1 record
	// CappedSyncs counts the group commits closed by the batch cap rather
	// than by the batch ceasing to grow.
	CappedSyncs int64 `json:"capped_syncs"`
	Size        int64 `json:"size"` // current file size (bytes)
}

// JournalStats reports the journal counters (zero when in-memory only).
func (s *Server) JournalStats() JournalStats {
	if s.journal == nil {
		return JournalStats{}
	}
	return JournalStats(s.journal.stats())
}

// QueueDepth reports the number of queued jobs.
func (s *Server) QueueDepth() int { return s.queue.depth() }

// ---- HTTP layer ----

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs            submit (body: jobspec.Spec JSON; X-Tenant header)
//	GET    /v1/jobs            list statuses (?tenant= filters)
//	GET    /v1/jobs/{id}       status with spec
//	GET    /v1/jobs/{id}/result  deterministic result document (409 until done)
//	GET    /v1/jobs/{id}/events  NDJSON stream, follows a live job
//	GET    /v1/jobs/{id}/trace   wall-clock trace (?format=perfetto for Chrome JSON)
//	DELETE /v1/jobs/{id}       cancel a queued or running job (409 if done)
//	GET    /metrics            Prometheus text + runtime/metrics snapshot
//	GET    /healthz            liveness: always 200 while the process serves
//	GET    /readyz             readiness: 200, or 503 when draining
//	GET    /debug/pprof/       host-side CPU/heap/goroutine profiling
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	// Admin profiling: the stdlib pprof handlers, registered explicitly so
	// the service's mux (not http.DefaultServeMux) serves them.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// httpError is the JSON error body every non-2xx response carries; the
// README documents the schema. Code is always set; the backpressure fields
// (tenant, queue depth, retry hint) appear on 429/503 rejections.
type httpError struct {
	Error             string  `json:"error"`
	Code              string  `json:"code,omitempty"`
	Tenant            string  `json:"tenant,omitempty"`
	QueueDepth        int     `json:"queue_depth,omitempty"`
	RetryAfterSeconds float64 `json:"retry_after_s,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, httpError{Error: err.Error(), Code: code})
}

// writeAdmissionError maps a refused submission: 503 when draining, 429
// otherwise, always with a Retry-After header and the structured body.
func writeAdmissionError(w http.ResponseWriter, ae *AdmissionError) {
	status := http.StatusTooManyRequests
	if ae.Code == CodeDraining {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfterSeconds()))
	writeJSON(w, status, httpError{
		Error:             ae.Error(),
		Code:              ae.Code,
		Tenant:            ae.Tenant,
		QueueDepth:        ae.QueueDepth,
		RetryAfterSeconds: ae.RetryAfter.Seconds(),
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec := &jobspec.Spec{}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadSpec, fmt.Errorf("serve: bad spec: %w", err))
		return
	}
	j, err := s.Submit(r.Header.Get("X-Tenant"), spec)
	if err != nil {
		var ae *AdmissionError
		if errors.As(err, &ae) {
			writeAdmissionError(w, ae)
			return
		}
		// Everything else is a spec the engine would reject: 400.
		writeError(w, http.StatusBadRequest, CodeBadSpec, err)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		j.Wait()
	}
	writeJSON(w, http.StatusAccepted, j.status(false))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs(r.URL.Query().Get("tenant")))
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("serve: no job %q", r.PathValue("id")))
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.status(true))
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	result, state := j.Result()
	if state != StateDone {
		writeError(w, http.StatusConflict, CodeConflict, fmt.Errorf("serve: job %s is %s", j.ID, state))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(result)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	j.Stream(w)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	t := j.trace()
	if r.URL.Query().Get("format") == "perfetto" {
		w.Header().Set("Content-Type", "application/json")
		t.WritePerfetto(w)
		return
	}
	writeJSON(w, http.StatusOK, t)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	st, cancelled, err := s.Cancel(j.ID)
	if err != nil {
		writeError(w, http.StatusNotFound, CodeNotFound, err)
		return
	}
	if !cancelled {
		writeError(w, http.StatusConflict, CodeConflict,
			fmt.Errorf("serve: job %s is %s and cannot be cancelled", j.ID, st.State))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Point-in-time gauges are set at scrape so the recorder stays simple.
	resH, resM, resE := s.results.Stats()
	setH, setM, setE := s.setups.Stats()
	s.telMu.Lock()
	defer s.telMu.Unlock()
	s.tel.Gauge("stencilserve_queue_depth").Set(float64(s.QueueDepth()))
	s.tel.Gauge("stencilserve_result_cache_hits").Set(float64(resH))
	s.tel.Gauge("stencilserve_result_cache_misses").Set(float64(resM))
	s.tel.Gauge("stencilserve_result_cache_evictions").Set(float64(resE))
	s.tel.Gauge("stencilserve_setup_cache_hits").Set(float64(setH))
	s.tel.Gauge("stencilserve_setup_cache_misses").Set(float64(setM))
	s.tel.Gauge("stencilserve_setup_cache_evictions").Set(float64(setE))
	s.tel.Gauge("stencilserve_result_cache_entries").Set(float64(s.results.Len()))
	s.tel.Gauge("stencilserve_setup_cache_entries").Set(float64(s.setups.Len()))
	if s.journal != nil {
		js := s.journal.stats()
		s.tel.Gauge("stencilserve_journal_records").Set(float64(js.Records))
		s.tel.Gauge("stencilserve_journal_bytes").Set(float64(js.Bytes))
		s.tel.Gauge("stencilserve_journal_group_commits").Set(float64(js.Syncs))
		s.tel.Gauge("stencilserve_journal_capped_commits").Set(float64(js.CappedSyncs))
		s.tel.Gauge("stencilserve_journal_size_bytes").Set(float64(js.Size))
		s.tel.Gauge("stencilserve_journal_compactions_total").Set(float64(s.compactions.Load()))
	}
	if s.recovery.JournalRecords > 0 || s.recovery.Reenqueued > 0 || s.recovery.ResultsRehydrated > 0 {
		s.tel.Gauge("stencilserve_recovery_journal_records").Set(float64(s.recovery.JournalRecords))
		s.tel.Gauge("stencilserve_recovery_torn_records").Set(float64(s.recovery.TornRecords))
		s.tel.Gauge("stencilserve_recovery_reenqueued_jobs").Set(float64(s.recovery.Reenqueued))
		s.tel.Gauge("stencilserve_recovery_completed_jobs").Set(float64(s.recovery.Completed))
		s.tel.Gauge("stencilserve_recovery_rehydrated_results").Set(float64(s.recovery.ResultsRehydrated))
		s.tel.Gauge("stencilserve_recovery_rehydrated_setups").Set(float64(s.recovery.SetupsRehydrated))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.tel.WritePrometheus(w)
	// The Go runtime's own health (heap, GC, scheduler) is appended after the
	// recorder's families rather than stored in the recorder: these are
	// host-side point-in-time readings, not part of the service's counters.
	writeRuntimeMetrics(w)
}

// handleHealthz is liveness only: 200 whenever the process can answer,
// including while draining — a draining server is alive, just not ready.
// Orchestrators restart on failed liveness and de-route on failed readiness;
// conflating them would turn every graceful drain into a kill. The mode
// (ok, draining) rides along for humans.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	mode := "ok"
	if draining {
		mode = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": mode})
}

// handleReadyz is the routing decision: 503 stops new traffic when draining
// (or after a simulated kill).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining || s.killed.Load() {
		writeError(w, http.StatusServiceUnavailable, CodeDraining, ErrDraining)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
