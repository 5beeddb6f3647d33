package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The write-ahead job journal.
//
// Every job lifecycle transition appends one NDJSON record to
// <data-dir>/journal.ndjson. The single durability contract of the service
// is: a submit is acknowledged (HTTP 202 / Submit returning a job) only
// after its "submitted" record — which embeds the full normalized spec — is
// fsync'd. Everything else (started/completed/failed/cancelled records, the
// disk spill of result bytes) is an optimization: losing it in a crash costs
// a recompute on recovery, never a wrong answer, because the engine is
// deterministic — replaying a spec yields byte-identical results.
//
// Appends use group commit with a dedicated syncer goroutine: appenders
// write their line into a buffered writer under the mutex and (for durable
// appends) wait; the syncer flushes the buffer and fsyncs, covering every
// record written since the previous commit began. Before each commit the
// syncer yields the processor while the batch keeps growing, so submitters
// that are already runnable join it; the batch closes as soon as a yield
// adds nothing. Commits that follow each other closely are paced one
// millisecond apart. Under concurrent submits one flush+fsync amortizes
// over the whole batch, which is what keeps journaling within the 1.5x
// throughput budget, while a submit to an idle journal commits in one
// fsync latency plus one yield.

// JournalName is the WAL file name inside a data directory.
const JournalName = "journal.ndjson"

// journalVersion guards record decoding; unknown versions are skipped as
// corrupt rather than misinterpreted.
const journalVersion = 1

// Journal record kinds. "submitted" is the only durable-before-ack record
// and the only one carrying the spec; the rest advance the job's replayed
// state machine.
const (
	recSubmitted = "submitted"
	recStarted   = "started"
	recCompleted = "completed"
	recFailed    = "failed"
	recCancelled = "cancelled"
	// recQuota is a jobless per-tenant accounting checkpoint (token-bucket
	// fill and stored-bytes total), written by compaction so recovery can
	// rehydrate quota state without the full submit history.
	recQuota = "quota"
)

// journalRecord is one NDJSON line of the WAL.
type journalRecord struct {
	V         int             `json:"v"`
	Rec       string          `json:"rec"`
	Job       string          `json:"job,omitempty"`
	Tenant    string          `json:"tenant,omitempty"`
	SpecHash  string          `json:"spec_hash,omitempty"`
	SetupHash string          `json:"setup_hash,omitempty"`
	Spec      json.RawMessage `json:"spec,omitempty"`
	Attempt   int             `json:"attempt,omitempty"`
	Cache     string          `json:"cache,omitempty"`
	Error     string          `json:"error,omitempty"`
	// Quota piggyback: the tenant's post-admission token-bucket fill (and
	// the instant it was observed) on submitted records, and the tenant's
	// stored-bytes total on completed records — so replay rehydrates quota
	// accounting to within one refill of the pre-crash values.
	Tokens *float64 `json:"tokens,omitempty"`
	TokTS  int64    `json:"tok_ts,omitempty"`
	Stored *int64   `json:"stored,omitempty"`
	// UnixNano is a wall-clock stamp for operators (journal-dump); recovery
	// never depends on it.
	UnixNano int64 `json:"ts,omitempty"`
}

// errJournalDead reports an append on a journal after kill() — the simulated
// post-SIGKILL state. Callers treat it like a crash: the write never happened.
var errJournalDead = errors.New("serve: journal is dead")

// journal is the append side of the WAL.
type journal struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast: synced advanced, or death/error
	want *sync.Cond // signal: a durable appender raised wantSync
	path string
	f    *os.File
	// w buffers record writes; the syncer flushes it before every fsync, so
	// an acked record is always on disk. Buffered-but-unflushed records are
	// all unacked (non-durable, or durable appenders still waiting) — losing
	// them in a crash is within the durability contract.
	w      *bufio.Writer
	err    error // first write/sync error; sticky
	dead   bool  // kill(): simulate process death, drop all writes
	closed bool  // graceful close(): syncer drained and exited
	seq    int64 // last sequence number handed out
	synced int64 // last sequence number covered by a completed fsync
	// wantSync is the highest sequence number a durable appender is waiting
	// on; the syncer goroutine sleeps whenever synced has caught up to it.
	wantSync int64

	// size is the file's length in bytes (pre-existing file + every appended
	// line): the auto-compaction trigger reads it.
	size int64

	// inFsync marks the window where the syncer has dropped the mutex for an
	// fsync, so compact() must not swap the file handle.
	inFsync bool

	records     int64 // appended records
	bytes       int64 // appended bytes
	syncs       int64 // fsync calls (group commits)
	cappedSyncs int64 // commits closed by batchCap, not by the batch ceasing to grow

	// batchCap is groupCommitCap as of open. fsync and yield are the
	// syncer's commit and batch-closing steps ((*os.File).Sync and
	// runtime.Gosched); tests replace them to hold the syncer at a known
	// point.
	batchCap time.Duration
	fsync    func(*os.File) error
	yield    func()

	done chan struct{} // syncer exited
}

// openJournal opens (creating if needed) the WAL for appending and starts
// its group-commit syncer. A torn tail (the partial final line of a crashed
// write) is truncated first: it decodes as nothing on replay anyway, and
// left in place the first post-crash append would merge with the fragment
// into one undecodable line, losing an acknowledged record.
func openJournal(path string) (*journal, error) {
	if err := truncateTornTail(path); err != nil {
		return nil, fmt.Errorf("serve: trim journal tail: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: open journal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: stat journal: %w", err)
	}
	j := &journal{
		path: path, f: f, w: bufio.NewWriterSize(f, 64<<10),
		size: fi.Size(), done: make(chan struct{}),
		batchCap: groupCommitCap, fsync: (*os.File).Sync, yield: runtime.Gosched,
	}
	j.cond = sync.NewCond(&j.mu)
	j.want = sync.NewCond(&j.mu)
	go j.syncLoop()
	return j, nil
}

// truncateTornTail cuts a journal file back to its last complete line. A
// missing file or one already ending in '\n' (the overwhelmingly common
// case) is a no-op.
func truncateTornTail(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	if size == 0 {
		return nil
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, size-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	const step = 64 << 10
	end := size
	for end > 0 {
		start := end - step
		if start < 0 {
			start = 0
		}
		chunk := make([]byte, end-start)
		if _, err := f.ReadAt(chunk, start); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(chunk, '\n'); i >= 0 {
			return f.Truncate(start + int64(i) + 1)
		}
		end = start
	}
	return f.Truncate(0)
}

// groupCommitCap bounds how long one batch may stay open, measured from
// when the syncer starts closing it, after any pacing sleep. Batches
// normally close much sooner, when a yield adds no new durable append; the
// cap only matters when submitters keep arriving, and it bounds the extra
// ack latency they can impose on the batch's first record at a few
// milliseconds, far below a job's runtime. A package var so tests can
// raise it; each journal reads it once at open.
var groupCommitCap = 2 * time.Millisecond

// groupCommitInterval paces back-to-back commits: a batch that opens within
// this long of the previous commit's end first sleeps out the rest of it.
// An idle journal never sleeps, so a submit to it still commits in one
// fsync latency plus one yield. Under sustained load the pace makes a
// timer, not the CPU the host happens to have free, the larger part of
// each submit's wall time, so throughput stays steady from run to run.
// One millisecond is also about the shortest sleep the Go runtime resolves
// on Linux once every goroutine is blocked: shorter ones round up to it.
const groupCommitInterval = time.Millisecond

// syncLoop is the dedicated group-commit goroutine: it fsyncs whenever
// durable appenders are waiting, so each commit covers every record written
// since the previous one began. A dedicated syncer batches markedly better
// under CPU load than leader election among the appenders — there is no
// per-commit wakeup handoff on the critical path, appenders just pile up
// behind the in-flight commit. Before each commit it sleeps out the pace
// left over from the previous commit, then yields until a yield brings in
// no new durable append, or the batch cap runs out.
func (j *journal) syncLoop() {
	defer close(j.done)
	var lastSync time.Time
	j.mu.Lock()
	for {
		// Wake only for durable appenders (the ack path): a non-durable record
		// rides along with the next commit, or reaches disk at close.
		for !j.dead && j.err == nil && j.synced >= j.wantSync {
			j.want.Wait()
		}
		if j.dead || j.err != nil {
			j.mu.Unlock()
			return
		}
		if wait := groupCommitInterval - time.Since(lastSync); wait > 0 {
			j.mu.Unlock()
			time.Sleep(wait)
			j.mu.Lock()
			if j.dead || j.err != nil {
				j.mu.Unlock()
				return
			}
		}
		opened := time.Now()
		capped := false
		for {
			before := j.wantSync
			j.mu.Unlock()
			j.yield()
			j.mu.Lock()
			if j.dead || j.err != nil {
				j.mu.Unlock()
				return
			}
			if j.wantSync == before {
				break // the batch stopped growing
			}
			if time.Since(opened) >= j.batchCap {
				capped = true
				break
			}
		}
		target := j.seq
		j.inFsync = true
		ferr := j.w.Flush()
		j.mu.Unlock()
		serr := j.fsync(j.f)
		if serr == nil {
			serr = ferr
		}
		lastSync = time.Now()
		j.mu.Lock()
		j.inFsync = false
		if j.dead { // killed mid-fsync: the commit never happened
			j.cond.Broadcast()
			j.mu.Unlock()
			return
		}
		if serr != nil {
			if j.err == nil {
				j.err = fmt.Errorf("serve: journal sync: %w", serr)
			}
		} else if target > j.synced {
			j.synced = target
			j.syncs++
			if capped {
				j.cappedSyncs++
			}
		}
		j.cond.Broadcast()
	}
}

// append writes one record. durable waits until an fsync covers it (group
// commit); non-durable returns after the OS write — its loss in a crash is
// repaired by recovery recomputing, so only submit acks pay for the fsync.
func (j *journal) append(r journalRecord, durable bool) error {
	r.V = journalVersion
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("serve: journal marshal: %w", err)
	}
	line = append(line, '\n')

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead || j.closed {
		return errJournalDead
	}
	if j.err != nil {
		return j.err
	}
	j.seq++
	mySeq := j.seq
	if _, werr := j.w.Write(line); werr != nil {
		j.err = fmt.Errorf("serve: journal write: %w", werr)
		j.cond.Broadcast()
		j.want.Broadcast()
		return j.err
	}
	j.records++
	j.bytes += int64(len(line))
	j.size += int64(len(line))
	if !durable {
		return nil
	}
	if mySeq > j.wantSync {
		j.wantSync = mySeq
	}
	j.want.Signal()
	for j.synced < mySeq && j.err == nil && !j.dead {
		j.cond.Wait()
	}
	if j.dead {
		return errJournalDead
	}
	return j.err
}

// kill simulates process death: all subsequent writes are dropped and the
// file handle closes without a flush. The crash-restart tests use this as
// the in-process SIGKILL.
func (j *journal) kill() {
	j.mu.Lock()
	if j.dead || j.closed {
		j.mu.Unlock()
		return
	}
	j.dead = true
	j.f.Close()
	j.cond.Broadcast()
	j.want.Broadcast()
	j.mu.Unlock()
	<-j.done
}

// close flushes and closes the journal (graceful shutdown).
func (j *journal) close() error {
	j.mu.Lock()
	if j.dead || j.closed {
		j.mu.Unlock()
		return nil
	}
	j.dead = true // stops the syncer; the final flush happens below
	j.cond.Broadcast()
	j.want.Broadcast()
	j.mu.Unlock()
	<-j.done

	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
	ferr := j.w.Flush()
	serr := j.f.Sync()
	cerr := j.f.Close()
	if ferr != nil {
		return ferr
	}
	if serr != nil {
		return serr
	}
	return cerr
}

// journalStats is the operator-facing view of the append side.
type journalStats struct {
	Records int64
	Bytes   int64
	Syncs   int64
	// CappedSyncs counts the commits closed by the batch cap rather than by
	// the batch ceasing to grow.
	CappedSyncs int64
	Size        int64 // current file length
}

func (j *journal) stats() journalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return journalStats{
		Records: j.records, Bytes: j.bytes, Syncs: j.syncs,
		CappedSyncs: j.cappedSyncs, Size: j.size,
	}
}

// compact rewrites the journal to live state at a safe point: it holds the
// mutex throughout, so appenders block, and it first waits out any
// in-flight fsync, so the syncer never syncs a swapped-out handle. The
// rewrite itself is crash-safe: replaceFile fsyncs the new file and renames
// it over the old one, so a crash leaves either version intact, never a
// mix.
func (j *journal) compact(haveResult func(hash string) bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.inFsync && !j.dead && j.err == nil {
		j.cond.Wait()
	}
	if j.dead || j.closed {
		return errJournalDead
	}
	if j.err != nil {
		return j.err
	}
	// Wake everyone on the way out: durable appenders this compaction
	// covered (or a poisoned journal failed), and the syncer.
	defer func() {
		j.cond.Broadcast()
		j.want.Broadcast()
	}()
	if ferr := j.w.Flush(); ferr != nil {
		j.err = fmt.Errorf("serve: compact flush: %w", ferr)
		return j.err
	}
	data, err := os.ReadFile(j.path)
	if err != nil {
		return fmt.Errorf("serve: compact read: %w", err)
	}
	newData, err := compactJournal(data, haveResult)
	if err != nil {
		return fmt.Errorf("serve: compact rewrite: %w", err)
	}
	if err := replaceFile(j.path, newData); err != nil {
		return fmt.Errorf("serve: compact write: %w", err)
	}
	nf, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The rewritten file is in place but unappendable: poison the journal
		// rather than keep writing through a stale handle to a renamed-away
		// inode.
		j.err = fmt.Errorf("serve: compact reopen: %w", err)
		return j.err
	}
	j.f.Close()
	j.f = nf
	j.w = bufio.NewWriterSize(nf, 64<<10)
	j.size = int64(len(newData))
	// Compaction is itself a group commit: the whole rewritten file is
	// fsync'd, so every pending durable appender is covered.
	if j.seq > j.synced {
		j.synced = j.seq
		j.syncs++
	}
	return nil
}

// replaceFile atomically replaces path with data: temp file in the same
// directory, fsync, rename.
func replaceFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".journal-compact-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
	}
	return werr
}

// ---- replay side ----

// journalJob is the replayed view of one job: the fold of its records. The
// state machine is tolerant of records arriving out of order in the file
// (a completed record written by a racing worker before the queue push's
// submitted record lands): terminal kinds dominate started, which dominates
// submitted, and the spec attaches whenever the submitted record is seen.
type journalJob struct {
	ID        string
	Tenant    string
	SpecHash  string
	SetupHash string
	Spec      json.RawMessage
	State     string // last-seen highest-precedence record kind
	Attempts  int    // count of started records
	Cache     string // completed record's cache annotation
	Error     string // failed record's message
}

// terminal reports whether the replayed job reached a terminal record.
func (jj *journalJob) terminal() bool {
	switch jj.State {
	case recCompleted, recFailed, recCancelled:
		return true
	}
	return false
}

// quotaSnap is the replayed per-tenant quota accounting: the last journaled
// token-bucket observation and the high-water stored-bytes total.
type quotaSnap struct {
	Tokens    float64
	HasTokens bool
	TokTS     int64
	Stored    int64
	HasStored bool
}

// journalReplay is the result of reading a WAL: per-job folds in first-seen
// order, per-tenant quota snapshots, plus corruption accounting.
type journalReplay struct {
	jobs  map[string]*journalJob
	order []string
	quota map[string]*quotaSnap
	// records is the count of well-formed records; torn counts skipped
	// lines — truncated trailing writes from a crash, or corrupt bytes.
	records int
	torn    int
}

func newJournalReplay() *journalReplay {
	return &journalReplay{jobs: map[string]*journalJob{}, quota: map[string]*quotaSnap{}}
}

// readJournal loads and folds a WAL. Undecodable lines (a torn final record
// from a crash mid-write, bit rot, an unknown version) are counted and
// skipped — never a panic, never a half-applied record: a line either
// decodes completely or contributes nothing.
func readJournal(path string) (*journalReplay, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return newJournalReplay(), nil
		}
		return nil, fmt.Errorf("serve: read journal: %w", err)
	}
	return replayJournal(data), nil
}

// replayJournal folds raw WAL bytes; split out for the fuzz target and for
// compaction, which rewrites the fold.
func replayJournal(data []byte) *journalReplay {
	rp := newJournalReplay()
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		rp.applyLine(line)
	}
	return rp
}

// applyLine folds one WAL line into the replay. A malformed line (torn
// tail, bit rot) contributes nothing but a torn count.
func (rp *journalReplay) applyLine(line []byte) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return
	}
	var r journalRecord
	if err := json.Unmarshal(line, &r); err != nil || r.V != journalVersion {
		rp.torn++
		return
	}
	switch r.Rec {
	case recQuota:
		if r.Tenant == "" {
			rp.torn++
			return
		}
		rp.records++
		rp.applyQuota(r)
		return
	case recSubmitted, recStarted, recCompleted, recFailed, recCancelled:
		if r.Job == "" {
			rp.torn++
			return
		}
	default:
		rp.torn++
		return
	}
	rp.records++
	if r.Tokens != nil || r.Stored != nil {
		rp.applyQuota(r)
	}
	jj := rp.jobs[r.Job]
	if jj == nil {
		jj = &journalJob{ID: r.Job, State: r.Rec}
		rp.jobs[r.Job] = jj
		rp.order = append(rp.order, r.Job)
	}
	switch r.Rec {
	case recSubmitted:
		jj.Tenant = r.Tenant
		jj.SpecHash = r.SpecHash
		jj.SetupHash = r.SetupHash
		jj.Spec = r.Spec
		if jj.State == "" {
			jj.State = recSubmitted
		}
	case recStarted:
		// Attempts is a count of started records, except a compacted journal
		// collapses the history into one started record carrying the total.
		jj.Attempts++
		if r.Attempt > jj.Attempts {
			jj.Attempts = r.Attempt
		}
		if !jj.terminal() {
			jj.State = recStarted
		}
	case recCompleted:
		jj.State = recCompleted
		jj.Cache = r.Cache
	case recFailed:
		jj.State = recFailed
		jj.Error = r.Error
	case recCancelled:
		jj.State = recCancelled
	}
}

// applyQuota folds one record's quota piggyback fields. Token observations
// are last-writer-wins (each snapshots the whole bucket at its instant);
// stored-bytes totals take the maximum, so replaying records out of their
// append order never undercounts a tenant's disk usage.
func (rp *journalReplay) applyQuota(r journalRecord) {
	q := rp.quota[r.Tenant]
	if q == nil {
		q = &quotaSnap{}
		rp.quota[r.Tenant] = q
	}
	if r.Tokens != nil && r.TokTS >= q.TokTS {
		q.Tokens = *r.Tokens
		q.HasTokens = true
		q.TokTS = r.TokTS
	}
	if r.Stored != nil {
		q.HasStored = true
		if *r.Stored > q.Stored {
			q.Stored = *r.Stored
		}
	}
}

// ---- compaction ----

// compactJournal rewrites raw WAL bytes to live state: one submitted record
// per job (its spec dropped only when the job is completed AND haveResult
// confirms its spilled result is on disk — otherwise recovery could neither
// serve nor re-run it), a single started record carrying the attempt total,
// the terminal record, and one quota checkpoint per tenant. The output is
// O(live jobs), deterministic for a given fold (jobs in first-seen order,
// tenants sorted), and replays to the same recovery decisions as the input.
func compactJournal(data []byte, haveResult func(hash string) bool) ([]byte, error) {
	rp := replayJournal(data)
	var buf bytes.Buffer
	emit := func(r journalRecord) error {
		r.V = journalVersion
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
		return nil
	}
	for _, id := range rp.order {
		jj := rp.jobs[id]
		sub := journalRecord{
			Rec: recSubmitted, Job: id, Tenant: jj.Tenant,
			SpecHash: jj.SpecHash, SetupHash: jj.SetupHash, Spec: jj.Spec,
		}
		if jj.State == recCompleted && haveResult != nil && haveResult(jj.SpecHash) {
			sub.Spec = nil
		}
		if err := emit(sub); err != nil {
			return nil, err
		}
		if jj.Attempts > 0 {
			if err := emit(journalRecord{Rec: recStarted, Job: id, SpecHash: jj.SpecHash, Tenant: jj.Tenant, Attempt: jj.Attempts}); err != nil {
				return nil, err
			}
		}
		var term *journalRecord
		switch jj.State {
		case recCompleted:
			term = &journalRecord{Rec: recCompleted, Job: id, SpecHash: jj.SpecHash, Tenant: jj.Tenant, Cache: jj.Cache}
		case recFailed:
			term = &journalRecord{Rec: recFailed, Job: id, SpecHash: jj.SpecHash, Tenant: jj.Tenant, Error: jj.Error}
		case recCancelled:
			term = &journalRecord{Rec: recCancelled, Job: id, SpecHash: jj.SpecHash, Tenant: jj.Tenant}
		}
		if term != nil {
			if err := emit(*term); err != nil {
				return nil, err
			}
		}
	}
	tenants := make([]string, 0, len(rp.quota))
	for t := range rp.quota {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		q := rp.quota[t]
		rec := journalRecord{Rec: recQuota, Tenant: t}
		if q.HasTokens {
			tok := q.Tokens
			rec.Tokens = &tok
			rec.TokTS = q.TokTS
		}
		if q.HasStored {
			stored := q.Stored
			rec.Stored = &stored
		}
		if err := emit(rec); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// CompactDataDir compacts a data directory's journal offline (no server
// running on it): the -journal-compact flag. Returns before/after sizes. A
// live server auto-compacts at Config.CompactBytes instead.
func CompactDataDir(dir string) (before, after int64, err error) {
	path := filepath.Join(dir, JournalName)
	if fi, serr := os.Stat(dir); serr == nil && !fi.IsDir() {
		path = dir
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	st := &store{dir: filepath.Dir(path)}
	newData, err := compactJournal(data, st.hasResult)
	if err == nil {
		err = replaceFile(path, newData)
	}
	if err != nil {
		return int64(len(data)), 0, err
	}
	return int64(len(data)), int64(len(newData)), nil
}

// errNotDurable refuses a journal operation on an in-memory server.
var errNotDurable = errors.New("serve: not durable (no DataDir)")

// maybeCompact triggers an online journal compaction once the file crosses
// Config.CompactBytes. At most one runs at a time, under s.wg so Drain and
// Kill wait for it; jobs keep executing — only journal appends pause for the
// rewrite window.
func (s *Server) maybeCompact() {
	if s.cfg.CompactBytes <= 0 || s.journal == nil {
		return
	}
	if s.journal.stats().Size < s.cfg.CompactBytes {
		return
	}
	if !s.compactBusy.CompareAndSwap(false, true) {
		return
	}
	// Register with s.wg under s.mu, where Drain and Kill mark the server
	// stopping, so the Add always happens before their Wait.
	s.mu.Lock()
	if s.draining || s.killed.Load() {
		s.mu.Unlock()
		s.compactBusy.Store(false)
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		defer s.compactBusy.Store(false)
		if err := s.CompactJournal(); err == nil {
			s.compactions.Add(1)
		}
	}()
}

// CompactJournal rewrites the live server's journal to live state at a safe
// point (appends blocked, syncer idle).
func (s *Server) CompactJournal() error {
	if s.journal == nil {
		return errNotDurable
	}
	return s.journal.compact(s.store.hasResult)
}

// ---- journal-dump (operator tooling) ----

// DumpJournal pretty-prints a WAL with per-tenant and per-state tallies: the
// operator's view of what a data directory holds. path may be the journal
// file itself or a data directory containing one. The output is
// deterministic for a given journal (tenants sorted, no wall-clock values).
func DumpJournal(path string, w *bytes.Buffer) error {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		path = filepath.Join(path, JournalName)
	}
	rp, err := readJournal(path)
	if err != nil {
		return err
	}
	type tally struct {
		submitted, running, completed, failed, cancelled, incomplete int
	}
	perTenant := map[string]*tally{}
	var total tally
	bump := func(t *tally, jj *journalJob) {
		t.submitted++
		switch jj.State {
		case recCompleted:
			t.completed++
		case recFailed:
			t.failed++
		case recCancelled:
			t.cancelled++
		case recStarted:
			t.running++
			t.incomplete++
		default:
			t.incomplete++
		}
	}
	for _, id := range rp.order {
		jj := rp.jobs[id]
		tenant := jj.Tenant
		if tenant == "" {
			tenant = "(unknown)"
		}
		tt := perTenant[tenant]
		if tt == nil {
			tt = &tally{}
			perTenant[tenant] = tt
		}
		bump(tt, jj)
		bump(&total, jj)
	}
	fmt.Fprintf(w, "journal %s: %d records (%d torn, skipped), %d jobs\n",
		path, rp.records, rp.torn, len(rp.order))
	tenants := make([]string, 0, len(perTenant))
	for t := range perTenant {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	fmt.Fprintf(w, "%-20s %9s %9s %9s %9s %9s %10s\n",
		"tenant", "submitted", "running", "done", "failed", "cancelled", "incomplete")
	for _, t := range tenants {
		tt := perTenant[t]
		fmt.Fprintf(w, "%-20s %9d %9d %9d %9d %9d %10d\n",
			t, tt.submitted, tt.running, tt.completed, tt.failed, tt.cancelled, tt.incomplete)
	}
	fmt.Fprintf(w, "%-20s %9d %9d %9d %9d %9d %10d\n",
		"TOTAL", total.submitted, total.running, total.completed, total.failed, total.cancelled, total.incomplete)
	if total.incomplete > 0 {
		fmt.Fprintf(w, "note: %d acknowledged jobs have no terminal record; a restart on this data dir re-enqueues them\n",
			total.incomplete)
	}
	return nil
}

// nowNano is the journal's wall stamp helper.
func nowNano(now func() time.Time) int64 {
	if now == nil {
		return 0
	}
	return now().UnixNano()
}
