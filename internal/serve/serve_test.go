package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nodeaware/stencil/internal/fault"
	"github.com/nodeaware/stencil/internal/jobspec"
)

// tinySpec is a job small enough to run thousands of times in a test.
func tinySpec() *jobspec.Spec {
	s := jobspec.Default()
	s.RanksPerNode = 2
	s.Domain = "12"
	s.Radius = 1
	s.Quantities = 1
	s.Iters = 2
	return s
}

func postSpec(t *testing.T, ts *httptest.Server, tenant string, spec *jobspec.Spec, query string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs"+query, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestSubmitWaitResult(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postSpec(t, ts, "alice", tinySpec(), "?wait=1")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state %q after wait, want done (%s)", st.State, body)
	}
	if st.SpecHash == "" || st.SetupHash == "" {
		t.Fatalf("missing hashes in status: %s", body)
	}

	resp, body = get(t, ts, "/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Schema != ResultSchema || res.SpecHash != st.SpecHash {
		t.Fatalf("result doc mismatch: schema %q spec_hash %q", res.Schema, res.SpecHash)
	}
	if len(res.IterationsSeconds) != 2 || res.MeanSeconds <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

// Resubmitting an identical job must be served from the result cache with
// byte-identical result and event bodies — the acceptance criterion of the
// whole-result cache.
func TestResultCacheByteIdentical(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids [2]string
	for i := range ids {
		resp, body := postSpec(t, ts, "alice", tinySpec(), "?wait=1")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		wantCache := ""
		if i == 1 {
			wantCache = "result"
		}
		if st.Cache != wantCache {
			t.Fatalf("submit %d: cache %q, want %q", i, st.Cache, wantCache)
		}
	}

	var results, events [2][]byte
	for i, id := range ids {
		resp, body := get(t, ts, "/v1/jobs/"+id+"/result")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s: %d", id, resp.StatusCode)
		}
		results[i] = body
		resp, body = get(t, ts, "/v1/jobs/"+id+"/events")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events %s: %d", id, resp.StatusCode)
		}
		events[i] = body
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Errorf("result bodies differ:\n%s\nvs\n%s", results[0], results[1])
	}
	// Event streams differ only in lifecycle lines' cache annotation; the
	// telemetry block between them must be byte-identical.
	if !bytes.Equal(stripLifecycle(events[0]), stripLifecycle(events[1])) {
		t.Errorf("telemetry event bytes differ between cold and cached run")
	}
	if hits, _, _, _ := s.CacheStats(); hits != 1 {
		t.Errorf("result cache hits = %d, want 1", hits)
	}
}

// stripLifecycle drops the serve-layer state lines, leaving the engine's
// telemetry events.
func stripLifecycle(stream []byte) []byte {
	var out [][]byte
	for _, line := range bytes.Split(stream, []byte("\n")) {
		if len(line) == 0 || bytes.Contains(line, []byte(`"kind":"state"`)) {
			continue
		}
		out = append(out, line)
	}
	return bytes.Join(out, []byte("\n"))
}

// Jobs sharing setup (same topology/partition inputs) but differing in run
// shape must hit the setup cache, and the warm run must produce exactly the
// bytes a cold run of the same spec would.
func TestSetupCacheReuse(t *testing.T) {
	a := tinySpec()
	b := tinySpec()
	b.Iters = 3 // different job hash, same setup hash

	// Cold reference for b on a fresh server (no caches warm).
	ref := NewServer(Config{Workers: 1})
	jRef, err := ref.Submit("", b)
	if err != nil {
		t.Fatal(err)
	}
	jRef.Wait()
	refBytes, _ := jRef.Result()
	ref.Drain()

	s := NewServer(Config{Workers: 1})
	defer s.Drain()
	jA, err := s.Submit("", a)
	if err != nil {
		t.Fatal(err)
	}
	jA.Wait()
	jB, err := s.Submit("", b)
	if err != nil {
		t.Fatal(err)
	}
	if st := jB.Wait(); st != StateDone {
		t.Fatalf("warm job state %q", st)
	}
	if jB.status(false).Cache != "setup" {
		t.Fatalf("warm job cache %q, want setup", jB.status(false).Cache)
	}
	warmBytes, _ := jB.Result()
	if !bytes.Equal(refBytes, warmBytes) {
		t.Errorf("setup-cached run differs from cold run:\n%s\nvs\n%s", refBytes, warmBytes)
	}
	if _, _, setupHits, _ := s.CacheStats(); setupHits != 1 {
		t.Errorf("setup cache hits = %d, want 1", setupHits)
	}
}

func TestSubmitErrors(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want string
	}{
		{"unknown field", `{"nodes": 1, "ranks_per_node": 2, "domain": "12", "radius": 1, "quantities": 1, "bogus": 1}`, "bogus"},
		{"bad caps", `{"nodes": 1, "ranks_per_node": 2, "domain": "12", "radius": 1, "quantities": 1, "caps": "warp"}`, "caps"},
		{"indivisible ranks", `{"nodes": 1, "ranks_per_node": 4, "domain": "12", "radius": 1, "quantities": 1}`, "divisible"},
		{"bad scenario kind", `{"nodes": 1, "ranks_per_node": 2, "domain": "12", "radius": 1, "quantities": 1,
			"scenario": {"events": [{"at": 1, "kind": "explode-node", "target": {"kind": "nic"}}]}}`, "explode-node"},
		{"negative scenario time", `{"nodes": 1, "ranks_per_node": 2, "domain": "12", "radius": 1, "quantities": 1,
			"scenario": {"events": [{"at": -1, "kind": "link-fail", "target": {"kind": "nvlink", "a": 0, "b": 1}}]}}`, "negative"},
		{"verify with 2-byte cells", `{"nodes": 1, "ranks_per_node": 2, "domain": "12", "radius": 1, "quantities": 1,
			"verify": true, "elem_size": 2}`, "ElemSize"},
		{"verify field over the real-data cap", `{"nodes": 1, "ranks_per_node": 2, "domain": "2048", "radius": 1, "quantities": 4,
			"verify": true}`, "real data"},
		{"fatal without checkpoint", `{"nodes": 1, "ranks_per_node": 2, "domain": "12", "radius": 1, "quantities": 1,
			"scenario": {"events": [{"at": 1, "kind": "gpu-fail", "target": {"kind": "gpu", "a": 0}}]}}`, "CheckpointEvery"},
		{"adapt_placement without adaptive", `{"nodes": 1, "ranks_per_node": 2, "domain": "12", "radius": 1, "quantities": 1,
			"adapt_placement": true}`, "AdaptPlacement"},
		{"straggle factor below 1", `{"nodes": 1, "ranks_per_node": 2, "domain": "12", "radius": 1, "quantities": 1,
			"scenario": {"events": [{"at": 1, "kind": "gpu-straggle", "target": {"kind": "gpu", "a": 0}, "factor": 0.5}]}}`, "straggle factor"},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, b)
			continue
		}
		var he httpError
		if err := json.Unmarshal(b, &he); err != nil || he.Error == "" {
			t.Errorf("%s: 400 body not an error document: %s", tc.name, b)
			continue
		}
		if !strings.Contains(he.Error, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, he.Error, tc.want)
		}
	}
}

// A valid scenario submitted over HTTP must round-trip into the engine and
// leave its trace in the result's fault log.
func TestScenarioJobRuns(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := tinySpec()
	spec.Iters = 4
	sc := &fault.Scenario{Name: "one-degrade"}
	sc.DegradeNIC(2e-4, 0, 0.5)
	spec.Scenario = sc

	resp, body := postSpec(t, ts, "", spec, "?wait=1")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st Status
	json.Unmarshal(body, &st)
	if st.State != StateDone {
		t.Fatalf("state %q (%s)", st.State, body)
	}
	_, body = get(t, ts, "/v1/jobs/"+st.ID+"/result")
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.FaultLog) == 0 {
		t.Errorf("scenario job produced no fault log: %s", body)
	}
}

// A job whose virtual clock passes 2000 s (one rank pauses that long) is
// admitted, so it must also finish, although the clock's rounding there
// leaves residue on every finished flow.
func TestLongPauseJobFinishes(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := tinySpec()
	spec.Nodes, spec.Domain, spec.Quantities, spec.Iters = 2, "32", 2, 4
	spec.Scenario = (&fault.Scenario{Name: "long-pause"}).PauseRank(0.001, 0, 2000)

	resp, body := postSpec(t, ts, "", spec, "?wait=1")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st Status
	json.Unmarshal(body, &st)
	if st.State != StateDone {
		t.Fatalf("state %q (%s)", st.State, body)
	}
}

func TestCancelQueuedOnly(t *testing.T) {
	// No workers: jobs stay queued, so transitions are deterministic.
	s := NewServer(Config{Workers: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postSpec(t, ts, "", tinySpec(), "")
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: %d %s", resp.StatusCode, b)
	}
	var cst Status
	json.Unmarshal(b, &cst)
	if cst.State != StateCancelled {
		t.Fatalf("state %q, want cancelled", cst.State)
	}
	if s.QueueDepth() != 0 {
		t.Fatalf("queue depth %d after cancel", s.QueueDepth())
	}

	// Cancelling a terminal job conflicts.
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel cancelled: %d, want 409", resp.StatusCode)
	}

	// The events stream of a cancelled job terminates.
	resp, b = get(t, ts, "/v1/jobs/"+st.ID+"/events")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(b, []byte(`"cancelled"`)) {
		t.Fatalf("events after cancel: %d %s", resp.StatusCode, b)
	}
}

// TestCancelRunning is the regression lock on mid-run cancellation: a
// running job that receives /cancel stops at the engine's next iteration
// safe point, ends cancelled (not failed), leaves nothing in the result
// cache, and — the original bug — frees its worker slot for the next job.
func TestCancelRunning(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Long enough that the cancel below always lands mid-run: the state
	// poll and DELETE take microseconds; the run takes three orders of
	// magnitude longer.
	long := tinySpec()
	long.Iters = 1500
	j, err := s.Submit("", long)
	if err != nil {
		t.Fatal(err)
	}
	for j.State() == StateQueued {
		time.Sleep(100 * time.Microsecond)
	}
	if st := j.State(); st != StateRunning {
		t.Fatalf("job reached %q without being cancelled", st)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+j.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running: %d %s", resp.StatusCode, b)
	}
	if st := j.Wait(); st != StateCancelled {
		t.Fatalf("cancelled mid-run job ended %q, want cancelled", st)
	}

	// The partial run must not be served or cached.
	if resp, _ := get(t, ts, "/v1/jobs/"+j.ID+"/result"); resp.StatusCode != http.StatusConflict {
		t.Errorf("result of cancelled job: %d, want 409", resp.StatusCode)
	}
	if hits, _, _, _ := s.CacheStats(); hits != 0 {
		t.Errorf("result cache hits %d after a preempted run, want 0", hits)
	}
	if resp, b := get(t, ts, "/v1/jobs/"+j.ID+"/events"); resp.StatusCode != http.StatusOK || !bytes.Contains(b, []byte(`"cancelled"`)) {
		t.Errorf("events of cancelled job: %d %s", resp.StatusCode, b)
	}

	// Cancelling a terminal job still conflicts.
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel of terminal job: %d, want 409", resp.StatusCode)
	}

	// The single worker must be free again: a fresh job completes.
	j2, err := s.Submit("", tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.Wait(); st != StateDone {
		t.Fatalf("follow-up job on the freed worker ended %q, want done", st)
	}
}

func TestDeadlinePreemptsMidRun(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Drain()
	sp := tinySpec()
	sp.Iters = 5000 // tens of seconds if run to completion
	sp.DeadlineSeconds = 0.05
	j, err := s.Submit("t", sp)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Wait(); st != StateFailed {
		t.Fatalf("deadline job ended %q, want failed", st)
	}
	st := j.status(false)
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("deadline job error %q", st.Error)
	}
	if st.Deadline == nil {
		t.Error("status missing the deadline field")
	}
	// A preempted run's partial bytes must never be cached.
	if s.results.Len() != 0 {
		t.Error("partial result of a deadline-preempted run was cached")
	}
}

func TestDeadlineExpiresInQueue(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Drain()
	// Pin the worker long enough for the deadline job's budget to expire
	// while it is still queued.
	pin := tinySpec()
	pin.Iters = 200 // ~hundreds of ms, far beyond the 1ms deadline below
	if _, err := s.Submit("t", pin); err != nil {
		t.Fatal(err)
	}
	sp := tinySpec()
	sp.Iters = 3
	sp.DeadlineSeconds = 0.001
	j, err := s.Submit("t", sp)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Wait(); st != StateFailed {
		t.Fatalf("expired-in-queue job ended %q, want failed", st)
	}
	if st := j.status(false); !strings.Contains(st.Error, "deadline") {
		t.Errorf("expired-in-queue job error %q", st.Error)
	}
}

// TestRetryAfterWorkerDeath: a worker death is not retried, even when a
// second run would succeed. The job fails after one run, the failure is not
// cached, and a fresh submit of the same spec runs again and completes.
func TestRetryAfterWorkerDeath(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Drain()
	var calls atomic.Int32
	s.runFn = func(spec *jobspec.Spec, specHash string, preset [][]int, preempt func() bool, lap *lapClock) (*runOutcome, error) {
		if calls.Add(1) == 1 {
			panic("injected worker death")
		}
		return runJob(spec, specHash, preset, preempt, lap)
	}
	j, err := s.Submit("t", tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Wait(); st != StateFailed {
		t.Fatalf("job whose worker died ended %q, want failed", st)
	}
	if st := j.status(false); st.Attempts != 1 || calls.Load() != 1 {
		t.Errorf("attempts %d after %d runs, want 1 and 1 (no retry)", st.Attempts, calls.Load())
	}
	if s.results.Len() != 0 {
		t.Error("a failed run left a cached result")
	}
	again, err := s.Submit("t", tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := again.Wait(); st != StateDone {
		t.Fatalf("resubmitted spec ended %q: %s", st, again.status(false).Error)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("runs after resubmit %d, want 2", n)
	}
}

// TestRetryExhaustionFails: a job whose every run panics reports, over HTTP,
// the failed state with the panic text after a single attempt, and the
// metrics count it as failed.
func TestRetryExhaustionFails(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Drain()
	s.runFn = func(spec *jobspec.Spec, specHash string, preset [][]int, preempt func() bool, lap *lapClock) (*runOutcome, error) {
		panic("always dies")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postSpec(t, ts, "t", tinySpec(), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	j, ok := s.Job(st.ID)
	if !ok {
		t.Fatalf("job %s not registered", st.ID)
	}
	if got := j.Wait(); got != StateFailed {
		t.Fatalf("always-dying job ended %q, want failed", got)
	}
	resp, body = get(t, ts, "/v1/jobs/"+st.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Error != "serve: worker died: always dies" || st.Attempts != 1 {
		t.Errorf("status %q, error %q, attempts %d; want failed, the panic text, 1", st.State, st.Error, st.Attempts)
	}
	if resp, _ := get(t, ts, "/v1/jobs/"+st.ID+"/result"); resp.StatusCode == http.StatusOK {
		t.Error("failed job served a result")
	}
	_, body = get(t, ts, "/metrics")
	if !strings.Contains(string(body), "stencilserve_jobs_failed_total 1") {
		t.Errorf("metrics do not count the failed job:\n%s", body)
	}
}

// TestWorkerPanicFailsOnce: a run that panics fails its job on that first
// panic — the run is a pure function of the spec, so a retry would only
// panic again — and the worker that recovered it goes on to the next job.
// The failure is journaled, so a restart restores the job as failed instead
// of re-running it.
func TestWorkerPanicFailsOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	bad := tinySpec()
	bad.Iters = 3
	var badRuns atomic.Int32
	s.runFn = func(spec *jobspec.Spec, specHash string, preset [][]int, preempt func() bool, lap *lapClock) (*runOutcome, error) {
		if spec.Iters == bad.Iters {
			badRuns.Add(1)
			panic("injected panic")
		}
		return runJob(spec, specHash, preset, preempt, lap)
	}
	const wantErr = "serve: worker died: injected panic"
	j, err := s.Submit("t", bad)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Wait(); st != StateFailed {
		t.Fatalf("panicking job ended %q, want failed", st)
	}
	if st := j.status(false); st.Error != wantErr || st.Attempts != 1 {
		t.Errorf("panicking job: error %q, attempts %d; want %q, 1", st.Error, st.Attempts, wantErr)
	}

	// The same single worker serves the next job.
	next, err := s.Submit("t", tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := next.Wait(); st != StateDone {
		t.Fatalf("job after the panic ended %q: %s", st, next.status(false).Error)
	}
	ts := httptest.NewServer(s.Handler())
	_, body := get(t, ts, "/metrics")
	ts.Close()
	if !strings.Contains(string(body), "stencilserve_jobs_failed_total 1") {
		t.Errorf("metrics do not count the failed job:\n%s", body)
	}
	s.Drain()
	if n := badRuns.Load(); n != 1 {
		t.Errorf("panicking job ran %d times, want 1", n)
	}

	s2, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if rec := s2.Recovery(); rec.Reenqueued != 0 || rec.Completed != 2 {
		t.Errorf("recovery re-enqueued %d and restored %d jobs, want 0 and 2", rec.Reenqueued, rec.Completed)
	}
	failed, ok := s2.Job(j.ID)
	if !ok {
		t.Fatalf("failed job %s lost in recovery", j.ID)
	}
	if st := failed.status(false); st.State != StateFailed || st.Attempts != 1 {
		t.Errorf("failed job restored as %q after %d attempts, want failed after 1", st.State, st.Attempts)
	}
}

func TestBackpressure(t *testing.T) {
	s, err := Open(Config{Workers: -1, QueueDepth: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		if resp, body := postSpec(t, ts, "t", tinySpec(), ""); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
	}
	journaled := s.JournalStats()
	resp, body := postSpec(t, ts, "t", tinySpec(), "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d %s, want 429", resp.StatusCode, body)
	}
	if got := len(s.Jobs("")); got != 2 {
		t.Fatalf("rejected job left in registry: %d jobs listed", got)
	}
	// The refusal comes before the journal: no record, no fsync.
	if got := s.JournalStats(); got.Records != journaled.Records || got.Syncs != journaled.Syncs {
		t.Errorf("refused submit touched the journal: %+v -> %+v", journaled, got)
	}
}

func TestRejectionHTTPSchema(t *testing.T) {
	// Every 429 carries Retry-After and the structured JSON body the README
	// documents.
	s := NewServer(Config{Workers: -1, QueueDepth: 1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, body := postSpec(t, ts, "t", tinySpec(), ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, body)
	}
	sp := tinySpec()
	sp.Iters = 7
	resp, body := postSpec(t, ts, "t", sp, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue submit: %d %s, want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After header %q, want a positive integer", ra)
	}
	for _, want := range []string{`"code": "queue_full"`, `"tenant": "t"`, `"queue_depth": 1`, `"retry_after_s"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("429 body missing %s:\n%s", want, body)
		}
	}
}

func TestFairQueueRotation(t *testing.T) {
	q := newFairQueue(0)
	// Tenant a floods; b and c each submit one job. Round-robin must serve
	// b and c within the first three pops.
	for i := 0; i < 5; i++ {
		q.push(&Job{ID: fmt.Sprintf("a%d", i), Tenant: "a"})
	}
	q.push(&Job{ID: "b0", Tenant: "b"})
	q.push(&Job{ID: "c0", Tenant: "c"})

	var order []string
	for i := 0; i < 7; i++ {
		j, ok := q.pop()
		if !ok {
			t.Fatal("queue drained early")
		}
		order = append(order, j.ID)
	}
	pos := map[string]int{}
	for i, id := range order {
		pos[id] = i
	}
	if pos["b0"] > 2 || pos["c0"] > 2 {
		t.Fatalf("flooded tenants starved the small ones: order %v", order)
	}
	// Within tenant a, FIFO order must hold.
	last := -1
	for i := 0; i < 5; i++ {
		p := pos[fmt.Sprintf("a%d", i)]
		if p < last {
			t.Fatalf("tenant FIFO violated: order %v", order)
		}
		last = p
	}
}

func TestDrain(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit("t", tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Drain()
	for _, j := range jobs {
		if st := j.State(); st != StateDone {
			t.Errorf("job %s state %q after drain", j.ID, st)
		}
	}
	if _, err := s.Submit("t", tinySpec()); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: %v, want ErrDraining", err)
	}
	// Liveness stays green through a drain (the process is alive, just not
	// accepting work); readiness is what goes 503.
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while drained: %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), "draining") {
		t.Errorf("healthz body while drained: %s, want status draining", body)
	}
	resp, _ = get(t, ts, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while drained: %d, want 503", resp.StatusCode)
	}
}

func TestListAndTenants(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tenant := range []string{"a", "a", "b"} {
		if resp, body := postSpec(t, ts, tenant, tinySpec(), "?wait=1"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
	}
	_, body := get(t, ts, "/v1/jobs?tenant=a")
	var list []Status
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("tenant a sees %d jobs, want 2: %s", len(list), body)
	}
	_, body = get(t, ts, "/v1/jobs")
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("unfiltered list has %d jobs, want 3", len(list))
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		postSpec(t, ts, "", tinySpec(), "?wait=1")
	}
	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"stencilserve_jobs_submitted_total",
		`stencilserve_jobs_completed_total{cache="result"} 1`,
		"stencilserve_result_cache_hits 1",
		"stencilserve_queue_depth 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestServeLoad is the ISSUE acceptance criterion: >= 1000 concurrent job
// submissions complete without deadlock under -race, with the result cache
// absorbing the duplicates and every duplicate byte-identical.
func TestServeLoad(t *testing.T) {
	const jobs = 1000
	s := NewServer(Config{QueueDepth: jobs + 64})
	defer s.Drain()

	// Eight distinct specs; every other submission is a duplicate the
	// result cache can serve once its first instance lands.
	specs := make([]*jobspec.Spec, 8)
	for i := range specs {
		sp := tinySpec()
		sp.Iters = 1 + i%4
		sp.Radius = 1 + i/4
		specs[i] = sp
	}

	var wg sync.WaitGroup
	done := make([]*Job, jobs)
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := *specs[i%len(specs)] // copy: Submit normalizes in place
			j, err := s.Submit(fmt.Sprintf("tenant-%d", i%5), &sp)
			if err != nil {
				errs[i] = err
				return
			}
			j.Wait()
			done[i] = j
		}(i)
	}
	wg.Wait()

	byHash := map[string][]byte{}
	for i, j := range done {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if st := j.State(); st != StateDone {
			t.Fatalf("job %s state %q", j.ID, st)
		}
		res, _ := j.Result()
		if prev, ok := byHash[j.Hash]; ok {
			if !bytes.Equal(prev, res) {
				t.Fatalf("hash %s: result bytes differ between jobs", j.Hash[:12])
			}
		} else {
			byHash[j.Hash] = res
		}
	}
	if len(byHash) != len(specs) {
		t.Errorf("saw %d distinct results, want %d", len(byHash), len(specs))
	}
	hits, misses, _, _ := s.CacheStats()
	if hits+misses != jobs {
		t.Errorf("result cache lookups %d, want %d", hits+misses, jobs)
	}
	// With 8 specs and 1000 jobs, the vast majority must be cache hits
	// (several duplicates may race past the first Put, hence the slack).
	if hits < jobs/2 {
		t.Errorf("result cache hits %d of %d, expected most submissions to hit", hits, jobs)
	}
}

func TestCostAwareLRU(t *testing.T) {
	c := NewCache[string](2 * cacheShards) // 2 entries per shard
	// Find three keys in one shard so the eviction scan is deterministic.
	keys := sameShardKeys(c, 3)
	c.Put(keys[0], "expensive", 100) // oldest, high cost
	c.Put(keys[1], "cheap", 1)       // newer, low cost
	c.Put(keys[2], "new", 10)        // forces an eviction
	// Cost-aware: the cheap entry dies even though the expensive one is
	// colder.
	if _, ok := c.Get(keys[0]); !ok {
		t.Error("expensive cold entry evicted; want the cheap one gone")
	}
	if _, ok := c.Get(keys[1]); ok {
		t.Error("cheap entry survived eviction")
	}
	if _, _, ev := c.Stats(); ev != 1 {
		t.Errorf("evictions %d, want 1", ev)
	}
	// Hit/miss counters: the two lookups above.
	h, m, _ := c.Stats()
	if h != 1 || m != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", h, m)
	}
}

// sameShardKeys generates n distinct keys hashing to one shard.
func sameShardKeys[V any](c *Cache[V], n int) []string {
	target := c.shard("seed-0")
	keys := []string{"seed-0"}
	for i := 1; len(keys) < n; i++ {
		k := fmt.Sprintf("seed-%d", i)
		if c.shard(k) == target {
			keys = append(keys, k)
		}
	}
	return keys
}
