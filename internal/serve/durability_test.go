package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nodeaware/stencil/internal/jobspec"
)

func TestCrashRestartChaos(t *testing.T) {
	// The tentpole test: a server with a durable data directory is killed
	// mid-load (in-process SIGKILL: no write lands from the kill instant, the
	// queue is dropped, the running engine iteration is abandoned) with
	// hundreds of acknowledged jobs in flight. A fresh server on the same
	// directory must recover every acknowledged job and produce results
	// byte-identical to an uncrashed server's.
	dir := t.TempDir()
	s1, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	// Pin the single worker on a long job (~1s: iteration cost grows with
	// the iteration count, so 400 is already long) so everything behind it
	// stays queued deterministically.
	pin := tinySpec()
	pin.Iters = 400
	if _, err := s1.Submit("t0", pin); err != nil {
		t.Fatal(err)
	}

	const extra = 299
	const distinct = 24
	tenants := []string{"t0", "t1", "t2", "t3"}
	var ids []string
	for i := 0; i < extra; i++ {
		sp := tinySpec()
		sp.Iters = 2 + i%distinct
		j, err := s1.Submit(tenants[i%len(tenants)], sp)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, j.ID)
	}

	inFlight := 0
	for _, st := range s1.Jobs("") {
		if st.State == StateQueued || st.State == StateRunning {
			inFlight++
		}
	}
	if inFlight < 200 {
		t.Fatalf("only %d jobs in flight at kill, want >= 200", inFlight)
	}

	s1.Kill()

	// Simulate the torn final record of a real crash: a partial line at the
	// journal's end. Recovery must count and skip it, nothing more.
	jf, err := os.OpenFile(filepath.Join(dir, JournalName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	jf.WriteString(`{"v":1,"rec":"comple`)
	jf.Close()

	// Restart on the same directory.
	s2, err := Open(Config{Workers: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	rec := s2.Recovery()
	if rec.Reenqueued != extra+1 {
		t.Errorf("reenqueued %d jobs, want %d", rec.Reenqueued, extra+1)
	}
	if rec.TornRecords < 1 {
		t.Errorf("torn records %d, want >= 1", rec.TornRecords)
	}

	// Zero acknowledged jobs lost: every submitted ID exists, is flagged
	// recovered, and completes.
	results := map[string][]byte{} // spec hash -> result bytes
	for _, id := range append([]string{"j000001"}, ids...) {
		j, ok := s2.Job(id)
		if !ok {
			t.Fatalf("acknowledged job %s lost in recovery", id)
		}
		if st := j.Wait(); st != StateDone {
			t.Fatalf("recovered job %s ended %q: %s", id, st, j.status(false).Error)
		}
		st := j.status(false)
		if !st.Recovered {
			t.Errorf("job %s not flagged recovered", id)
		}
		res, _ := j.Result()
		if prev, ok := results[st.SpecHash]; ok && !bytes.Equal(prev, res) {
			t.Fatalf("job %s: same spec hash, different result bytes", id)
		}
		results[st.SpecHash] = res
	}

	// Byte-identity against an uncrashed reference server.
	ref := NewServer(Config{Workers: 4})
	defer ref.Drain()
	for i := 0; i < distinct; i++ {
		sp := tinySpec()
		sp.Iters = 2 + i
		j, err := ref.Submit("ref", sp)
		if err != nil {
			t.Fatal(err)
		}
		j.Wait()
		res, _ := j.Result()
		want, ok := results[j.Hash]
		if !ok {
			t.Fatalf("reference spec hash %s missing from recovered set", j.Hash)
		}
		if !bytes.Equal(res, want) {
			t.Fatalf("recovered result for %s differs from uncrashed reference", j.Hash)
		}
	}
}

func TestRestartRehydratesCaches(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 3; i++ {
		sp := tinySpec()
		sp.Iters = 5 + i
		j, err := s1.Submit("alice", sp)
		if err != nil {
			t.Fatal(err)
		}
		if st := j.Wait(); st != StateDone {
			t.Fatalf("job ended %q", st)
		}
		res, _ := j.Result()
		want[j.Hash] = res
	}
	s1.Drain()

	s2, err := Open(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	rec := s2.Recovery()
	if rec.Completed != 3 {
		t.Errorf("restored %d completed jobs, want 3", rec.Completed)
	}
	if rec.ResultsRehydrated != 3 {
		t.Errorf("rehydrated %d results, want 3", rec.ResultsRehydrated)
	}
	if rec.SetupsRehydrated < 1 {
		t.Errorf("rehydrated %d setups, want >= 1", rec.SetupsRehydrated)
	}
	if rec.Reenqueued != 0 {
		t.Errorf("reenqueued %d after clean drain, want 0", rec.Reenqueued)
	}

	// Restored terminal jobs serve their original bytes...
	for _, st := range s2.Jobs("") {
		j, _ := s2.Job(st.ID)
		res, state := j.Result()
		if state != StateDone {
			t.Fatalf("restored job %s state %q", st.ID, state)
		}
		if !bytes.Equal(res, want[st.SpecHash]) {
			t.Fatalf("restored job %s result differs from the pre-restart bytes", st.ID)
		}
	}
	// ...and a resubmit of the same spec hits the rehydrated result cache —
	// no engine run.
	sp := tinySpec()
	sp.Iters = 5
	j, err := s2.Submit("alice", sp)
	if err != nil {
		t.Fatal(err)
	}
	j.Wait()
	if st := j.status(false); st.Cache != "result" {
		t.Errorf("resubmit after restart served with cache=%q, want result", st.Cache)
	}
	res, _ := j.Result()
	if !bytes.Equal(res, want[j.Hash]) {
		t.Fatal("cache-served result differs from the pre-restart bytes")
	}
}

// TestRestartKeepsJobsOlderRulesAccepted: a journal written before a rule
// was tightened can hold specs that admission now rejects (here send_retries
// -2, which older releases ran like the default). A completed job with such
// a spec is restored as done and keeps serving its result; an acknowledged
// job that never ran must pass today's rule and comes back failed.
func TestRestartKeepsJobsOlderRulesAccepted(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit("alice", tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Wait(); st != StateDone {
		t.Fatalf("job ended %q", st)
	}
	want, _ := j.Result()
	s1.Drain()

	path := filepath.Join(dir, JournalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const good, old = `"send_retries":8`, `"send_retries":-2`
	if !bytes.Contains(raw, []byte(good)) {
		t.Fatalf("journal holds no %s to rewrite:\n%s", good, raw)
	}
	raw = bytes.ReplaceAll(raw, []byte(good), []byte(old))
	// An acknowledged, never-started job with the same old-style spec.
	var spec json.RawMessage
	for _, line := range bytes.Split(raw, []byte("\n")) {
		var r journalRecord
		if json.Unmarshal(line, &r) == nil && r.Rec == recSubmitted {
			spec = r.Spec
		}
	}
	queued, _ := json.Marshal(journalRecord{V: 1, Rec: recSubmitted, Job: "j000099", Tenant: "alice", SpecHash: "h", Spec: spec})
	raw = append(raw, append(queued, '\n')...)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	done, _ := s2.Job(j.ID)
	if res, state := done.Result(); state != StateDone || !bytes.Equal(res, want) {
		t.Errorf("completed job restored as %q (result equal: %v), want done with its result", state, bytes.Equal(res, want))
	}
	failed, _ := s2.Job("j000099")
	if st := failed.status(false); st.State != StateFailed || !strings.Contains(st.Error, "SendRetries") {
		t.Errorf("queued job with a now-invalid spec restored as %q (%q), want failed naming SendRetries", st.State, st.Error)
	}
}

func TestJournalTornRecords(t *testing.T) {
	good := func(rec, job string) string {
		return fmt.Sprintf(`{"v":1,"rec":%q,"job":%q,"tenant":"t","spec_hash":"h"}`, rec, job)
	}
	cases := []struct {
		name          string
		lines         []string
		records, torn int
		wantStates    map[string]string // job -> folded state
	}{
		{
			name:    "torn final record",
			lines:   []string{good("submitted", "j1"), good("started", "j1"), `{"v":1,"rec":"comple`},
			records: 2, torn: 1,
			wantStates: map[string]string{"j1": recStarted},
		},
		{
			name:    "wrong version skipped",
			lines:   []string{good("submitted", "j1"), `{"v":9,"rec":"completed","job":"j1"}`},
			records: 1, torn: 1,
			wantStates: map[string]string{"j1": recSubmitted},
		},
		{
			name:    "unknown kind skipped",
			lines:   []string{good("submitted", "j1"), `{"v":1,"rec":"exploded","job":"j1"}`},
			records: 1, torn: 1,
			wantStates: map[string]string{"j1": recSubmitted},
		},
		{
			name:    "missing job id skipped",
			lines:   []string{`{"v":1,"rec":"submitted"}`},
			records: 0, torn: 1,
			wantStates: map[string]string{},
		},
		{
			name:    "binary garbage skipped",
			lines:   []string{"\x00\x01\x02 not json", good("submitted", "j1"), good("completed", "j1")},
			records: 2, torn: 1,
			wantStates: map[string]string{"j1": recCompleted},
		},
		{
			name: "out of order terminal dominates",
			lines: []string{
				good("completed", "j1"), good("submitted", "j1"), good("started", "j1"),
			},
			records: 3, torn: 0,
			wantStates: map[string]string{"j1": recCompleted},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rp := replayJournal([]byte(strings.Join(tc.lines, "\n") + "\n"))
			if rp.records != tc.records || rp.torn != tc.torn {
				t.Fatalf("records=%d torn=%d, want %d/%d", rp.records, rp.torn, tc.records, tc.torn)
			}
			if len(rp.jobs) != len(tc.wantStates) {
				t.Fatalf("folded %d jobs, want %d", len(rp.jobs), len(tc.wantStates))
			}
			for job, state := range tc.wantStates {
				jj := rp.jobs[job]
				if jj == nil || jj.State != state {
					t.Errorf("job %s folded to %+v, want state %q", job, jj, state)
				}
			}
		})
	}
}

func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(`{"v":1,"rec":"submitted","job":"j1","tenant":"t","spec_hash":"h","spec":{"iters":3}}`))
	f.Add([]byte(`{"v":1,"rec":"completed","job":"j1"}` + "\n" + `{"v":1,"rec":"subm`))
	f.Add([]byte("\x00\xff garbage\n\n{"))
	f.Add([]byte(`{"v":2,"rec":"submitted","job":"j1"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rp := replayJournal(data)
		if rp == nil {
			t.Fatal("nil replay")
		}
		if len(rp.order) != len(rp.jobs) {
			t.Fatalf("order %d entries, jobs %d", len(rp.order), len(rp.jobs))
		}
		for _, id := range rp.order {
			if rp.jobs[id] == nil {
				t.Fatalf("ordered job %q missing from map", id)
			}
		}
		// Folding is deterministic.
		rp2 := replayJournal(data)
		if rp2.records != rp.records || rp2.torn != rp.torn || len(rp2.jobs) != len(rp.jobs) {
			t.Fatal("replay is not deterministic")
		}
	})
}

func TestJournalDump(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, tenant := range []string{"alice", "alice", "bob"} {
		sp := tinySpec()
		sp.Iters = 3 + i
		j, err := s.Submit(tenant, sp)
		if err != nil {
			t.Fatal(err)
		}
		j.Wait()
	}
	// One acknowledged-but-incomplete job: pin then kill.
	pin := tinySpec()
	pin.Iters = 400
	if _, err := s.Submit("carol", pin); err != nil {
		t.Fatal(err)
	}
	s.Kill()

	var buf bytes.Buffer
	if err := DumpJournal(dir, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"alice", "bob", "carol", "TOTAL", "4 jobs", "acknowledged jobs have no terminal record"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestJournalOverheadCounters(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	for i := 0; i < 8; i++ {
		sp := tinySpec()
		sp.Iters = 2 + i
		j, err := s.Submit("t", sp)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		j.Wait()
	}
	st := s.journal.stats()
	if st.Records < 8*2 { // submitted + terminal per job at minimum
		t.Errorf("journal records %d, want >= 16", st.Records)
	}
	// Group commit: fsyncs must not exceed durable appends (one per submit
	// at worst, fewer when concurrent submits share one commit).
	if st.Syncs > 8+1 {
		t.Errorf("group commits %d for 8 submits", st.Syncs)
	}
	if st.Syncs < 1 {
		t.Error("no fsync recorded for durable submits")
	}
	ts := httptest.NewServer(s.Handler())
	_, body := get(t, ts, "/metrics")
	ts.Close()
	for _, want := range []string{"stencilserve_journal_group_commits", "stencilserve_journal_capped_commits"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	s.Drain()

	// Journal survives a graceful drain too: a reopen sees all terminal.
	rp, err := readJournal(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	for id, jj := range rp.jobs {
		if !jj.terminal() {
			t.Errorf("job %s not terminal in journal after drain (state %s)", id, jj.State)
		}
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		q := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(q, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(q, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCompactionPreservesRecovery pins the compaction contract: recovering
// from a compacted data directory yields exactly the jobs, states, and
// result bytes that the uncompacted directory yields.
func TestCompactionPreservesRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, tenant := range []string{"alice", "alice", "bob", "bob", "carol"} {
		sp := tinySpec()
		sp.Iters = 3 + i
		j, err := s.Submit(tenant, sp)
		if err != nil {
			t.Fatal(err)
		}
		if st := j.Wait(); st != StateDone {
			t.Fatalf("job ended %q", st)
		}
	}
	// Leave work in flight so compaction must preserve live-job records:
	// pin the worker, queue two more, kill.
	pin := tinySpec()
	pin.Iters = 400
	if _, err := s.Submit("dave", pin); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		sp := tinySpec()
		sp.Iters = 30 + i
		if _, err := s.Submit("erin", sp); err != nil {
			t.Fatal(err)
		}
	}
	s.Kill()

	cdir := t.TempDir()
	copyTree(t, dir, cdir)
	before, after, err := CompactDataDir(cdir)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("compaction grew the journal: %d -> %d bytes", before, after)
	}

	type snap struct {
		states  map[string]State
		results map[string][]byte
	}
	boot := func(d string) snap {
		s, err := Open(Config{Workers: 4, DataDir: d})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Drain()
		out := snap{states: map[string]State{}, results: map[string][]byte{}}
		for _, st := range s.Jobs("") {
			j, _ := s.Job(st.ID)
			state := j.Wait()
			out.states[j.ID] = state
			if state == StateDone {
				res, _ := j.Result()
				out.results[j.ID] = res
			}
		}
		return out
	}
	plain, compacted := boot(dir), boot(cdir)

	if len(plain.states) != len(compacted.states) {
		t.Fatalf("job count differs: %d uncompacted vs %d compacted", len(plain.states), len(compacted.states))
	}
	for id, st := range plain.states {
		if compacted.states[id] != st {
			t.Errorf("job %s: state %q uncompacted vs %q compacted", id, st, compacted.states[id])
		}
		if !bytes.Equal(plain.results[id], compacted.results[id]) {
			t.Errorf("job %s: result bytes differ across compaction", id)
		}
	}
}

// TestAutoCompaction: with CompactBytes set, the journal self-compacts under
// sustained load and stays correct (every job still terminal and servable).
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Workers: 2, DataDir: dir, CompactBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		sp := tinySpec()
		sp.Iters = 2 + i%6
		j, err := s.Submit("t", sp)
		if err != nil {
			t.Fatal(err)
		}
		j.Wait()
	}
	// Compactions run under the server's WaitGroup, so Drain returns only
	// after every triggered one has finished.
	s.Drain()
	if got := s.compactions.Load(); got < 1 {
		t.Fatalf("%d auto compactions over 40 jobs, want >= 1", got)
	}

	s2, err := Open(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if got := len(s2.Jobs("")); got != 40 {
		t.Fatalf("recovered %d jobs after auto-compaction, want 40", got)
	}
	for _, st := range s2.Jobs("") {
		j, _ := s2.Job(st.ID)
		if state := j.Wait(); state != StateDone {
			t.Errorf("job %s ended %q after compacted recovery", j.ID, state)
		}
	}
}

// TestRecoverLegacyQuotaJournal: a data directory written by a release with
// per-tenant quotas still recovers. That journal carried token-bucket fills
// on submitted records, stored-byte totals on completed records, retry
// attempts on started records and per-tenant "quota" checkpoints, and its
// result spills named their tenant. Every job comes back in its state with
// byte-identical results, no line counts as torn, and the next compaction
// drops what no release reads any more.
func TestRecoverLegacyQuotaJournal(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{} // job ID -> result bytes
	for i, tenant := range []string{"alice", "bob"} {
		sp := tinySpec()
		sp.Iters = 3 + i
		j, err := s1.Submit(tenant, sp)
		if err != nil {
			t.Fatal(err)
		}
		if st := j.Wait(); st != StateDone {
			t.Fatalf("job ended %q", st)
		}
		want[j.ID], _ = j.Result()
	}
	s1.Drain()

	// withFields appends legacy fields to one encoded record.
	withFields := func(line []byte, fields string) string {
		return string(line[:len(line)-1]) + "," + fields + "}"
	}
	const tokens = `"tokens":49,"tok_ts":1767225600000000000`
	path := filepath.Join(dir, JournalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var r journalRecord
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		switch r.Rec {
		case recSubmitted:
			lines = append(lines, withFields(line, tokens))
		case recCompleted:
			lines = append(lines, withFields(line, `"stored":2048`))
		default:
			lines = append(lines, string(line))
		}
	}
	record := func(r journalRecord, fields string) {
		r.V = journalVersion
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if fields != "" {
			lines = append(lines, withFields(b, fields))
		} else {
			lines = append(lines, string(b))
		}
	}
	submit := func(id, tenant string, iters int) {
		sp := tinySpec()
		sp.Iters = iters
		if err := sp.Normalize(); err != nil {
			t.Fatal(err)
		}
		hash, err := sp.Hash()
		if err != nil {
			t.Fatal(err)
		}
		setupHash, err := sp.SetupHash()
		if err != nil {
			t.Fatal(err)
		}
		spec, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		record(journalRecord{Rec: recSubmitted, Job: id, Tenant: tenant, SpecHash: hash, SetupHash: setupHash, Spec: spec}, tokens)
	}
	// j000003 was acknowledged and never ran; j000004 failed after three
	// worker deaths; j000005 was cancelled in the queue.
	submit("j000003", "carol", 5)
	submit("j000004", "alice", 6)
	record(journalRecord{Rec: recStarted, Job: "j000004", Tenant: "alice", Attempt: 3}, "")
	const died = "serve: worker died after 3 attempts: boom"
	record(journalRecord{Rec: recFailed, Job: "j000004", Tenant: "alice", Error: died}, `"stored":2048`)
	submit("j000005", "bob", 7)
	record(journalRecord{Rec: recCancelled, Job: "j000005", Tenant: "bob"}, "")
	record(journalRecord{Rec: recQuota, Tenant: "alice"}, tokens+`,"stored":4096`)
	record(journalRecord{Rec: recQuota, Tenant: "bob"}, `"stored":2048`)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Result spills carried their tenant.
	spills, err := filepath.Glob(filepath.Join(dir, resultsDirName, "*.json"))
	if err != nil || len(spills) != 2 {
		t.Fatalf("result spills %v (%v), want 2", spills, err)
	}
	for _, p := range spills {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(withFields(bytes.TrimSpace(b), `"tenant":"alice"`)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec := s2.Recovery()
	if rec.JournalRecords != len(lines) || rec.TornRecords != 0 {
		t.Errorf("replayed %d records (%d torn), want %d (0 torn)", rec.JournalRecords, rec.TornRecords, len(lines))
	}
	if rec.ResultsRehydrated != 2 || rec.SkippedFiles != 0 {
		t.Errorf("rehydrated %d results, skipped %d files; want 2 and 0", rec.ResultsRehydrated, rec.SkippedFiles)
	}
	if rec.Completed != 4 || rec.Reenqueued != 1 {
		t.Errorf("restored %d terminal and re-enqueued %d jobs, want 4 and 1", rec.Completed, rec.Reenqueued)
	}
	state := func(id string) Status {
		t.Helper()
		j, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s lost in recovery", id)
		}
		j.Wait()
		return j.status(false)
	}
	for id, res := range want {
		j, _ := s2.Job(id)
		if got, st := j.Result(); st != StateDone || !bytes.Equal(got, res) {
			t.Errorf("job %s restored as %q (result equal: %v), want done with its bytes", id, st, bytes.Equal(got, res))
		}
	}
	if st := state("j000003"); st.State != StateDone || st.Attempts != 1 {
		t.Errorf("re-enqueued job ended %q after %d attempts: %s", st.State, st.Attempts, st.Error)
	}
	if st := state("j000004"); st.State != StateFailed || st.Error != died || st.Attempts != 3 {
		t.Errorf("failed job restored as %q (%q, %d attempts), want failed with %q, 3 attempts", st.State, st.Error, st.Attempts, died)
	}
	if st := state("j000005"); st.State != StateCancelled {
		t.Errorf("cancelled job restored as %q", st.State)
	}
	rerun, _ := s2.Job("j000003")
	got, _ := rerun.Result()
	s2.Drain()

	ref := NewServer(Config{Workers: 1})
	defer ref.Drain()
	sp := tinySpec()
	sp.Iters = 5
	j, err := ref.Submit("ref", sp)
	if err != nil {
		t.Fatal(err)
	}
	j.Wait()
	if res, _ := j.Result(); !bytes.Equal(got, res) {
		t.Error("re-run of the legacy job differs from an uncrashed server's result")
	}

	if _, _, err := CompactDataDir(dir); err != nil {
		t.Fatal(err)
	}
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{`"rec":"quota"`, `"tokens":`, `"tok_ts":`, `"stored":`} {
		if bytes.Contains(compacted, []byte(gone)) {
			t.Errorf("compacted journal still holds %s", gone)
		}
	}
}

// TestRestartKeepsFailureReasons: a failed job's error rides in its failed
// journal record, so a restart restores each failed job with its own
// message — a deadline that expired in the queue and a worker panic here.
// A journal that predates the error field restores the fallback text.
func TestRestartKeepsFailureReasons(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Every clock read is an hour after the last, so a one-second deadline
	// has always passed by the time a worker pops the job.
	base := time.Now()
	var hours atomic.Int64
	s1.now = func() time.Time { return base.Add(time.Duration(hours.Add(1)) * time.Hour) }
	s1.runFn = func(*jobspec.Spec, string, [][]int, func() bool, *lapClock) (*runOutcome, error) {
		panic("injected panic")
	}
	late := tinySpec()
	late.DeadlineSeconds = 1
	bad := tinySpec()
	bad.Iters = 3
	want := map[string]string{}
	for _, sp := range []*jobspec.Spec{late, bad} {
		j, err := s1.Submit("t", sp)
		if err != nil {
			t.Fatal(err)
		}
		if st := j.Wait(); st != StateFailed {
			t.Fatalf("job %s ended %q, want failed", j.ID, st)
		}
		want[j.ID] = j.status(false).Error
	}
	s1.Drain()
	if len(want) != 2 || want["j000001"] != errDeadline.Error() || want["j000002"] != "serve: worker died: injected panic" {
		t.Fatalf("failure reasons before the restart: %v", want)
	}

	reasons := func() map[string]string {
		s, err := Open(Config{Workers: 1, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Drain()
		got := map[string]string{}
		for id := range want {
			j, ok := s.Job(id)
			if !ok {
				t.Fatalf("job %s lost in recovery", id)
			}
			st := j.status(false)
			if st.State != StateFailed {
				t.Fatalf("job %s restored as %q, want failed", id, st.State)
			}
			got[id] = st.Error
		}
		return got
	}
	if got := reasons(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored failure reasons %v, want %v", got, want)
	}

	// Strip the error field, as a journal from before it was written.
	path := filepath.Join(dir, JournalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		var r journalRecord
		if len(bytes.TrimSpace(line)) == 0 || json.Unmarshal(line, &r) != nil || r.Error == "" {
			out = append(out, line...)
			continue
		}
		r.Error = ""
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, b...), '\n')
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	for id, msg := range reasons() {
		if msg != orUnknown("") {
			t.Errorf("job %s from a journal without errors restored %q, want the fallback", id, msg)
		}
	}
}
