package serve

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
// from a compacted data directory yields exactly the jobs, states, result
// bytes, and quota accounting that the uncompacted directory yields.
func TestCompactionPreservesRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers: 1, DataDir: dir,
		TenantQuota: Quota{SubmitRate: 0.001, SubmitBurst: 50, MaxStoredBytes: 1 << 30},
	}
	s, err := Open(cfg)
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
		stored  int64
		tokens  float64
	}
	boot := func(d string) snap {
		c := cfg
		c.DataDir = d
		c.Workers = 4
		s, err := Open(c)
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
		out.stored = s.quotas.storedBytesTotal()
		out.tokens, _, _ = s.quotas.snapshot("alice", s.now())
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
	if plain.stored != compacted.stored {
		t.Errorf("stored bytes differ: %d uncompacted vs %d compacted", plain.stored, compacted.stored)
	}
	if plain.tokens != compacted.tokens {
		t.Errorf("alice's token fill differs: %v uncompacted vs %v compacted", plain.tokens, compacted.tokens)
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

// TestQuotaPersistence: token-bucket fill and stored-bytes accounting
// survive a restart within one refill interval — a tenant cannot reset its
// budget by crashing the server, and restarts do not double-count spills.
func TestQuotaPersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers: 2, DataDir: dir,
		// Near-zero refill rate: the bucket only moves when submits spend it,
		// so before/after comparisons are exact.
		TenantQuota: Quota{SubmitRate: 0.0001, SubmitBurst: 50, MaxStoredBytes: 1 << 30},
	}
	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sp := tinySpec()
		sp.Iters = 3 + i
		j, err := s1.Submit("alice", sp)
		if err != nil {
			t.Fatal(err)
		}
		if st := j.Wait(); st != StateDone {
			t.Fatalf("job ended %q", st)
		}
	}
	tok1, stored1, _ := s1.quotas.snapshot("alice", s1.now())
	if tok1 > 41 { // 50 burst - 10 spent (+ negligible refill)
		t.Fatalf("token fill %v after 10 submits, want ~40", tok1)
	}
	if stored1 <= 0 {
		t.Fatal("no stored bytes accrued for alice")
	}
	s1.Drain()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tok2, stored2, _ := s2.quotas.snapshot("alice", s2.now())
	if diff := tok2 - tok1; diff < 0 || diff > 1 {
		t.Errorf("token fill after restart %v, want %v (within one refill)", tok2, tok1)
	}
	if stored2 != stored1 {
		t.Errorf("stored bytes after restart %d, want %d (no double-count)", stored2, stored1)
	}
	if s2.Recovery().QuotaTenants < 1 {
		t.Errorf("recovery reseeded %d quota tenants, want >= 1", s2.Recovery().QuotaTenants)
	}

	// Re-running the same specs re-spills over the same content-addressed
	// paths; the putResult delta contract keeps the totals flat.
	for i := 0; i < 10; i++ {
		sp := tinySpec()
		sp.Iters = 3 + i
		j, err := s2.Submit("alice", sp)
		if err != nil {
			t.Fatal(err)
		}
		j.Wait()
	}
	_, stored3, _ := s2.quotas.snapshot("alice", s2.now())
	if stored3 != stored1 {
		t.Errorf("stored bytes after cache-hit resubmits %d, want %d", stored3, stored1)
	}
	s2.Drain()

	// A third boot sees the same totals again (max of journal and disk scan,
	// not their sum).
	s3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Drain()
	_, stored4, _ := s3.quotas.snapshot("alice", s3.now())
	if stored4 != stored1 {
		t.Errorf("stored bytes after second restart %d, want %d", stored4, stored1)
	}
}
