package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/nodeaware/stencil/internal/jobspec"
	"github.com/nodeaware/stencil/internal/serve"
)

// The crash smoke: the CI gate for the durability layer.
//
// Phase 1 (deterministic, byte-gated): a durable server with no workers
// accepts a batch of jobs — every one acknowledged, so every one is fsync'd
// in the journal — and is then killed in-process, exactly the post-SIGKILL
// state (a torn partial record is appended on top, as a real crash can leave
// one). A fresh server on the same data directory must recover every
// acknowledged job and run it to completion, and each spec's result digest
// must match an uncrashed in-memory server's. Everything in this section is
// a pure function of the spec set, so it is compared byte-for-byte against
// the committed reference.
//
// Phase 2 (informational + ratio-gated): the same load run on an in-memory
// and on a durable server, timed. The figures are host-dependent — only the
// overhead ratio is gated (journaling must stay within 1.5x), the absolute
// rates are archived for trend reading.

const (
	crashSchema      = "stencilserve-crash/1"
	crashDistinct    = 24
	crashPerSpec     = 10 // submissions per distinct spec
	crashTenants     = 4
	overheadJobs     = 1500
	overheadConc     = 128
	overheadTrials   = 4
	overheadDistinct = 24 // distinct specs in the load pool; the rest are cache hits
	maxOverheadRat   = 1.5
)

// crashSpecDigest is one distinct spec's deterministic identity.
type crashSpecDigest struct {
	SpecHash     string `json:"spec_hash"`
	ResultSHA256 string `json:"result_sha256"`
}

// crashDeterministic is the byte-gated section of the report.
type crashDeterministic struct {
	JobsSubmitted    int               `json:"jobs_submitted"`
	DistinctSpecs    int               `json:"distinct_specs"`
	InFlightAtKill   int               `json:"in_flight_at_kill"`
	TornRecords      int               `json:"torn_records"`
	RecoveredJobs    int               `json:"recovered_jobs"`
	LostJobs         int               `json:"lost_jobs"`
	AllRecoveredDone bool              `json:"all_recovered_done"`
	ByteIdentical    bool              `json:"byte_identical"`
	Specs            []crashSpecDigest `json:"specs"`
}

// crashOverhead is the host-dependent section; only the ratio is gated.
type crashOverhead struct {
	Jobs              int     `json:"jobs"`
	Concurrency       int     `json:"concurrency"`
	Workers           int     `json:"workers"`
	MemoryJobsPerSec  float64 `json:"memory_jobs_per_sec"`
	DurableJobsPerSec float64 `json:"durable_jobs_per_sec"`
	OverheadRatio     float64 `json:"overhead_ratio"` // memory rate / durable rate
	GroupCommits      int64   `json:"group_commits"`
	JournalRecords    int64   `json:"journal_records"`
}

type crashReport struct {
	Schema        string             `json:"schema"`
	Deterministic crashDeterministic `json:"deterministic"`
	Overhead      crashOverhead      `json:"journal_overhead"`
}

// crashSpec returns distinct spec i of the crash matrix.
func crashSpec(i int) *jobspec.Spec {
	sp := tinySpec()
	sp.Iters = 2 + i
	return sp
}

func runCrashSmoke(cfg serve.Config, refPath string, report, log io.Writer) error {
	rep := crashReport{Schema: crashSchema}

	det, err := crashDeterministicPhase(log)
	if err != nil {
		return err
	}
	rep.Deterministic = *det

	oh, err := crashOverheadPhase(cfg, log)
	if err != nil {
		return err
	}
	rep.Overhead = *oh

	enc := json.NewEncoder(report)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}

	if det.LostJobs > 0 || !det.AllRecoveredDone || !det.ByteIdentical {
		return fmt.Errorf("crashsmoke: recovery lost or corrupted acknowledged jobs (lost=%d done=%t identical=%t)",
			det.LostJobs, det.AllRecoveredDone, det.ByteIdentical)
	}
	if refPath != "" {
		if err := gateAgainstRef(refPath, &rep, log); err != nil {
			return err
		}
	}
	return nil
}

// crashDeterministicPhase runs the kill/recover cycle and builds the
// byte-gated section.
func crashDeterministicPhase(log io.Writer) (*crashDeterministic, error) {
	dir, err := os.MkdirTemp("", "stencilserve-crash-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	det := &crashDeterministic{
		DistinctSpecs: crashDistinct,
		JobsSubmitted: crashDistinct * crashPerSpec,
	}

	// Workers: -1 — no workers, so every acknowledged job is still queued at
	// the kill and in_flight_at_kill is exact, not racy.
	s1, err := serve.Open(serve.Config{Workers: -1, DataDir: dir, QueueDepth: det.JobsSubmitted + 16})
	if err != nil {
		return nil, err
	}
	var ids []string
	for i := 0; i < det.JobsSubmitted; i++ {
		tenant := fmt.Sprintf("tenant-%d", i%crashTenants)
		j, err := s1.Submit(tenant, crashSpec(i%crashDistinct))
		if err != nil {
			return nil, fmt.Errorf("crashsmoke submit %d: %w", i, err)
		}
		ids = append(ids, j.ID)
	}
	det.InFlightAtKill = len(ids)
	s1.Kill()
	fmt.Fprintf(log, "crashsmoke: killed server with %d acknowledged jobs in flight\n", det.InFlightAtKill)

	// A real SIGKILL can tear the final record mid-write; simulate it.
	jf, err := os.OpenFile(filepath.Join(dir, serve.JournalName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	jf.WriteString(`{"v":1,"rec":"submitted","job":"torn`)
	jf.Close()
	det.TornRecords = 1

	// Recover and run everything.
	s2, err := serve.Open(serve.Config{DataDir: dir, QueueDepth: det.JobsSubmitted + 16})
	if err != nil {
		return nil, err
	}
	det.AllRecoveredDone = true
	recovered := map[string][]byte{} // spec hash -> result bytes
	for _, id := range ids {
		j, ok := s2.Job(id)
		if !ok {
			det.LostJobs++
			det.AllRecoveredDone = false
			continue
		}
		det.RecoveredJobs++
		if st := j.Wait(); st != serve.StateDone {
			det.AllRecoveredDone = false
			continue
		}
		res, _ := j.Result()
		recovered[j.Hash] = res
	}
	s2.Drain()

	// Uncrashed reference: the same distinct specs on a plain in-memory
	// server must produce byte-identical results.
	ref := serve.NewServer(serve.Config{})
	det.ByteIdentical = true
	for i := 0; i < crashDistinct; i++ {
		j, err := ref.Submit("ref", crashSpec(i))
		if err != nil {
			return nil, err
		}
		if st := j.Wait(); st != serve.StateDone {
			return nil, fmt.Errorf("crashsmoke reference job ended %s", st)
		}
		res, _ := j.Result()
		if !bytes.Equal(res, recovered[j.Hash]) {
			det.ByteIdentical = false
		}
		sum := sha256.Sum256(res)
		det.Specs = append(det.Specs, crashSpecDigest{
			SpecHash:     j.Hash,
			ResultSHA256: hex.EncodeToString(sum[:]),
		})
	}
	ref.Drain()
	sort.Slice(det.Specs, func(a, b int) bool { return det.Specs[a].SpecHash < det.Specs[b].SpecHash })
	fmt.Fprintf(log, "crashsmoke: recovered %d/%d jobs, byte_identical=%t\n",
		det.RecoveredJobs, det.JobsSubmitted, det.ByteIdentical)
	return det, nil
}

// crashOverheadPhase times the same submit+wait load on an in-memory and a
// durable server and reports the throughput ratio.
func crashOverheadPhase(base serve.Config, log io.Writer) (*crashOverhead, error) {
	workers := base.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	oh := &crashOverhead{Jobs: overheadJobs, Concurrency: overheadConc, Workers: workers}

	// Open-loop load: every client goroutine submits as fast as the server
	// acknowledges (this is where group commit amortizes the fsyncs), then
	// the run waits for the whole batch to finish. jobs/s is measured over
	// submit-through-completion of all jobs. The spec pool mixes distinct
	// specs (real compute + a result spill each) with repeats (cache hits),
	// like production traffic — an all-cache-hit pool would measure only the
	// submit path and overstate journal overhead relative to any job that
	// does work.
	specs := make([]*jobspec.Spec, overheadDistinct)
	for i := range specs {
		specs[i] = crashSpec(i)
	}
	run := func(dataDir string) (float64, *serve.Server, error) {
		s, err := serve.Open(serve.Config{
			Workers: workers, DataDir: dataDir, QueueDepth: overheadJobs + 64,
		})
		if err != nil {
			return 0, nil, err
		}
		idx := make(chan int)
		submitted := make([]*serve.Job, overheadJobs)
		var wg sync.WaitGroup
		var firstErr error
		var errMu sync.Mutex
		start := time.Now()
		for w := 0; w < overheadConc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					sp := *specs[i%len(specs)]
					j, err := s.Submit(fmt.Sprintf("tenant-%d", i%7), &sp)
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						continue
					}
					submitted[i] = j
				}
			}()
		}
		for i := 0; i < overheadJobs; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
		for _, j := range submitted {
			if j == nil {
				continue
			}
			if st := j.Wait(); st != serve.StateDone {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("job %s ended %s", j.ID, st)
				}
				errMu.Unlock()
			}
		}
		wall := time.Since(start).Seconds()
		if firstErr != nil {
			return 0, nil, firstErr
		}
		return float64(overheadJobs) / wall, s, nil
	}

	// Best-of-N per mode: each trial is only ~100-200ms of wall time, so a
	// single scheduler hiccup can swing the ratio by tens of percent. Trials
	// alternate in-memory and durable runs so slow stretches of the host hit
	// both modes alike; taking each mode's best trial then measures the cost
	// of journaling rather than the noise of the host.
	var memRate, durRate float64
	var js serve.JournalStats
	for t := 0; t < overheadTrials; t++ {
		rate, srv, err := run("")
		if err != nil {
			return nil, err
		}
		srv.Drain()
		if rate > memRate {
			memRate = rate
		}

		dir, err := os.MkdirTemp("", "stencilserve-overhead-")
		if err != nil {
			return nil, err
		}
		rate, srv, err = run(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		stats := srv.JournalStats()
		srv.Drain()
		os.RemoveAll(dir)
		if rate > durRate {
			durRate, js = rate, stats
		}
	}

	oh.MemoryJobsPerSec = memRate
	oh.DurableJobsPerSec = durRate
	oh.OverheadRatio = memRate / durRate
	oh.GroupCommits = js.Syncs
	oh.JournalRecords = js.Records
	fmt.Fprintf(log, "crashsmoke: %.0f jobs/s in-memory, %.0f jobs/s durable (ratio %.2fx, %d group commits (%d capped) for %d records)\n",
		memRate, durRate, oh.OverheadRatio, js.Syncs, js.CappedSyncs, js.Records)
	return oh, nil
}

// gateAgainstRef enforces the CI contract: the deterministic section must be
// byte-identical to the committed reference, and the freshly measured
// journal overhead must stay within the budget.
func gateAgainstRef(refPath string, got *crashReport, log io.Writer) error {
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		return fmt.Errorf("crashsmoke ref: %w", err)
	}
	var ref crashReport
	if err := json.Unmarshal(refBytes, &ref); err != nil {
		return fmt.Errorf("crashsmoke ref decode: %w", err)
	}
	want, err := json.MarshalIndent(ref.Deterministic, "", "  ")
	if err != nil {
		return err
	}
	have, err := json.MarshalIndent(got.Deterministic, "", "  ")
	if err != nil {
		return err
	}
	if !bytes.Equal(want, have) {
		return fmt.Errorf("crashsmoke: deterministic section diverged from %s:\nwant:\n%s\ngot:\n%s",
			refPath, want, have)
	}
	if got.Overhead.OverheadRatio > maxOverheadRat {
		return fmt.Errorf("crashsmoke: journal overhead %.2fx exceeds the %.1fx budget",
			got.Overhead.OverheadRatio, maxOverheadRat)
	}
	fmt.Fprintf(log, "crashsmoke: deterministic section matches %s byte-for-byte; overhead %.2fx within %.1fx\n",
		refPath, got.Overhead.OverheadRatio, maxOverheadRat)
	return nil
}
