package serve

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/nodeaware/stencil/internal/jobspec"
)

// RecoveryStats reports what a boot-time replay rebuilt from the data
// directory. Exposed on /metrics and by cmd/stencilserve at startup.
type RecoveryStats struct {
	JournalRecords    int `json:"journal_records"`    // records replayed
	TornRecords       int `json:"torn_records"`       // undecodable lines skipped (torn final write)
	Reenqueued        int `json:"reenqueued_jobs"`    // acknowledged-but-incomplete jobs re-run
	Completed         int `json:"completed_jobs"`     // terminal jobs restored to the registry
	ResultsRehydrated int `json:"rehydrated_results"` // result-cache entries loaded from disk
	SetupsRehydrated  int `json:"rehydrated_setups"`  // setup-cache entries loaded from disk
	SkippedFiles      int `json:"skipped_files"`      // corrupt/foreign store files ignored
}

// recoverFromDisk opens the data directory, replays the journal, rehydrates
// both caches from the disk store, restores terminal jobs to the registry,
// and re-enqueues every acknowledged-but-incomplete job. Called from Open
// before the worker pool starts, so recovered jobs cannot race live ones.
//
// Correctness leans entirely on determinism: a re-enqueued job re-runs its
// journaled spec, and the engine maps that spec to byte-identical result and
// event bytes — so recovery returns exactly what the crashed process would
// have. The journal's only durable-before-ack record is "submitted"; losing
// any later record merely costs a redundant re-run, never a wrong answer.
func (s *Server) recoverFromDisk(dir string) error {
	st, err := newStore(dir)
	if err != nil {
		return err
	}
	s.store = st

	// Rehydrate the caches from the spill. Corrupt or foreign files are
	// skipped, not fatal: a torn spill write is equivalent to the entry never
	// having been cached.
	now := s.now()
	skipped, err := st.loadAll(
		func(hash string, e resultEntry, cost float64) {
			s.results.Put(hash, e, cost)
			s.recovery.ResultsRehydrated++
		},
		func(hash string, assignments [][]int, cost float64) {
			s.setups.Put(hash, setupEntry{assignments: assignments}, cost)
			s.recovery.SetupsRehydrated++
		},
	)
	if err != nil {
		return err
	}
	s.recovery.SkippedFiles = skipped

	// Replay the journal into per-job final states.
	journalPath := filepath.Join(dir, JournalName)
	rep, err := readJournal(journalPath)
	if err != nil {
		return err
	}
	s.recovery.JournalRecords = rep.records
	s.recovery.TornRecords = rep.torn

	maxID := 0
	for _, id := range rep.order {
		jj := rep.jobs[id]
		if n := numericJobID(id); n > maxID {
			maxID = n
		}
		j, err := s.restoreJob(jj, now)
		if err != nil {
			// A journaled spec that no longer validates (or never decoded)
			// cannot be re-run; surface it as a failed job rather than
			// silently dropping an acknowledged submit.
			j = newJob(jj.ID, jj.Tenant, nil, jj.SpecHash, jj.SetupHash, now)
			j.recovered = true
			j.finish(now, nil, nil, fmt.Errorf("serve: unrecoverable job: %w", err), false, false)
			s.registerRecovered(j)
			continue
		}
		if j == nil {
			continue
		}
		s.registerRecovered(j)
		if !jj.terminal() {
			// Acknowledged but never finished: the ack promised completion,
			// so re-enqueue past the capacity bound.
			if err := s.queue.forcePush(j); err != nil {
				return fmt.Errorf("serve: re-enqueue %s: %w", j.ID, err)
			}
			s.recovery.Reenqueued++
		} else {
			s.recovery.Completed++
		}
	}
	s.mu.Lock()
	if maxID > s.nextID {
		s.nextID = maxID
	}
	s.mu.Unlock()

	// Reopen the journal for appends; new records land after the replayed
	// ones, and the next replay folds both.
	j, err := openJournal(journalPath)
	if err != nil {
		return err
	}
	s.journal = j
	return nil
}

// restoreJob rebuilds one journaled job. Terminal jobs are restored in their
// final state (completed ones re-serve their result from the rehydrated
// cache); incomplete ones come back queued. Returns nil for cancelled jobs
// whose spec never landed (nothing to show).
func (s *Server) restoreJob(jj *journalJob, now time.Time) (*Job, error) {
	var spec *jobspec.Spec
	if len(jj.Spec) > 0 {
		spec = &jobspec.Spec{}
		if err := json.Unmarshal(jj.Spec, spec); err != nil {
			return nil, fmt.Errorf("spec decode: %w", err)
		}
		if err := spec.Normalize(); err != nil {
			return nil, err
		}
	} else if !jj.terminal() {
		return nil, fmt.Errorf("no spec in journal")
	}

	j := newJob(jj.ID, jj.Tenant, spec, jj.SpecHash, jj.SetupHash, now)
	j.recovered = true
	j.attempts = jj.Attempts
	if spec != nil && spec.DeadlineSeconds > 0 {
		// Deadlines are relative to submission; post-crash the original
		// submission instant is gone, so the clock restarts at recovery —
		// generous, never lossy.
		j.deadline = now.Add(time.Duration(spec.DeadlineSeconds * float64(time.Second)))
	}

	switch jj.State {
	case recCompleted:
		if e, ok := s.results.Get(jj.SpecHash); ok {
			j.finish(now, e.result, e.events, nil, true, jj.Cache == "setup")
		} else {
			// Completed per the journal but the spill is gone. The store
			// writes the result before the completed record can land, so
			// this means the spill was deleted (or its write was torn) —
			// re-run the job: determinism reproduces the same bytes.
			if spec == nil {
				return nil, fmt.Errorf("completed job lost both result and spec")
			}
			jj.State = recStarted // caller re-enqueues (terminal() now false)
		}
	case recFailed:
		j.finish(now, nil, nil, fmt.Errorf("%s", orUnknown(jj.Error)), false, false)
	case recCancelled:
		if spec == nil {
			return nil, nil
		}
		j.cancel(now)
	}
	// Only a job that runs again must pass today's admission rule. A
	// terminal one is restored as it ended, even if a later release rejects
	// its spec (a completed job keeps serving its result).
	if spec != nil && !jj.terminal() {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	return j, nil
}

func orUnknown(msg string) string {
	if msg == "" {
		return "serve: failed before the crash (reason not journaled)"
	}
	return msg
}

// registerRecovered inserts a rebuilt job into the registry in journal order.
func (s *Server) registerRecovered(j *Job) {
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()
}

// numericJobID parses the numeric part of a "j%06d" ID (0 if foreign).
func numericJobID(id string) int {
	digits := strings.TrimPrefix(id, "j")
	n, err := strconv.Atoi(digits)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
