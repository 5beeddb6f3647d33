package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The group-commit tests hold the syncer at a known point through the
// journal's fsync and yield seams, so every assertion is a count fixed by
// the order of events, never by host speed or goroutine scheduling. The
// 30 s timeouts only turn a hang into a failure.

// openTestJournal opens a fresh journal in a temp directory, closed at
// cleanup.
func openTestJournal(tb testing.TB) *journal {
	tb.Helper()
	j, err := openJournal(filepath.Join(tb.TempDir(), JournalName))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { j.close() })
	return j
}

func groupCommitRecord(i int) journalRecord {
	return journalRecord{Rec: recSubmitted, Job: fmt.Sprintf("j%06d", i), Tenant: "t"}
}

// waitUntil polls cond under the journal mutex.
func waitUntil(tb testing.TB, j *journal, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j.mu.Lock()
		ok := cond()
		j.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// recvWithin receives one append result, failing the test after 30 s.
func recvWithin(tb testing.TB, ch <-chan error, what string) error {
	tb.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(30 * time.Second):
		tb.Fatalf("%s still blocked after 30s", what)
		return nil
	}
}

// Every durable append written while a commit is in flight joins the next
// batch: one commit for the first record, one for all the rest.
func TestGroupCommitBatchesBehindInFlightFsync(t *testing.T) {
	const n = 16
	j := openTestJournal(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	var fsyncs atomic.Int64
	j.mu.Lock()
	j.fsync = func(f *os.File) error {
		if fsyncs.Add(1) == 1 {
			close(entered)
			<-release
		}
		return f.Sync()
	}
	j.mu.Unlock()

	first := make(chan error, 1)
	go func() { first <- j.append(groupCommitRecord(0), true) }()
	<-entered
	errs := make(chan error, n)
	for i := 1; i <= n; i++ {
		go func(i int) { errs <- j.append(groupCommitRecord(i), true) }(i)
	}
	waitUntil(t, j, fmt.Sprintf("%d records are written", n+1), func() bool { return j.seq == n+1 })
	close(release)

	if err := recvWithin(t, first, "first append"); err != nil {
		t.Fatalf("first append: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := recvWithin(t, errs, "batched append"); err != nil {
			t.Fatalf("batched append: %v", err)
		}
	}
	if got := fsyncs.Load(); got != 2 {
		t.Errorf("fsync calls = %d, want 2", got)
	}
	if st := j.stats(); st.Syncs != 2 || st.Records != n+1 {
		t.Errorf("stats = %+v, want 2 syncs for %d records", st, n+1)
	}
}

// A lone appender never waits for the batch cap: its batch closes as soon
// as a yield adds nothing, so each append costs one commit even with the
// cap raised to an hour.
func TestGroupCommitLoneAppendSkipsCap(t *testing.T) {
	const n = 20
	saved := groupCommitCap
	groupCommitCap = time.Hour
	t.Cleanup(func() { groupCommitCap = saved })
	j := openTestJournal(t)

	for i := 0; i < n; i++ {
		done := make(chan error, 1)
		go func() { done <- j.append(groupCommitRecord(i), true) }()
		if err := recvWithin(t, done, fmt.Sprintf("append %d", i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if st := j.stats(); st.Syncs != n || st.CappedSyncs != 0 {
		t.Errorf("stats = %+v, want %d syncs, 0 capped", st, n)
	}
}

// Back-to-back commits are paced: a batch that opens right after a commit
// reaches fsync no sooner than groupCommitInterval after that commit ended.
// time.Sleep never returns early, so the bound holds on any host.
func TestGroupCommitPacesBackToBackCommits(t *testing.T) {
	const n = 5
	j := openTestJournal(t)
	var mu sync.Mutex
	var starts, ends []time.Time
	j.mu.Lock()
	j.fsync = func(f *os.File) error {
		mu.Lock()
		starts = append(starts, time.Now())
		mu.Unlock()
		err := f.Sync()
		mu.Lock()
		ends = append(ends, time.Now())
		mu.Unlock()
		return err
	}
	j.mu.Unlock()

	for i := 0; i < n; i++ {
		if err := j.append(groupCommitRecord(i), true); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(starts) != n {
		t.Fatalf("fsync calls = %d, want %d", len(starts), n)
	}
	for i := 1; i < n; i++ {
		if gap := starts[i].Sub(ends[i-1]); gap < groupCommitInterval {
			t.Errorf("commit %d started %v after commit %d ended, want >= %v", i, gap, i-1, groupCommitInterval)
		}
	}
}

// kill() while the syncer is yielding fails every waiter with
// errJournalDead, and neither kill nor the waiters hang.
func TestGroupCommitKillWhileYielding(t *testing.T) {
	const n = 8
	j := openTestJournal(t)
	yielding := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	j.mu.Lock()
	j.yield = func() {
		once.Do(func() {
			close(yielding)
			<-resume
		})
	}
	j.mu.Unlock()

	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) { errs <- j.append(groupCommitRecord(i), true) }(i)
	}
	<-yielding
	killed := make(chan struct{})
	go func() {
		j.kill()
		close(killed)
	}()
	waitUntil(t, j, "the journal is dead", func() bool { return j.dead })
	close(resume)

	select {
	case <-killed:
	case <-time.After(30 * time.Second):
		t.Fatal("kill still blocked after 30s")
	}
	for i := 0; i < n; i++ {
		if err := recvWithin(t, errs, "waiter"); !errors.Is(err, errJournalDead) {
			t.Errorf("waiter returned %v, want errJournalDead", err)
		}
	}
	if st := j.stats(); st.Syncs != 0 {
		t.Errorf("syncs = %d after a kill before the first commit, want 0", st.Syncs)
	}
}

// BenchmarkJournalDurableAppend times acknowledged appends, one appender at
// a time and from GOMAXPROCS appenders at once; syncs/op shows how many
// appends each group commit covers. Back-to-back appends are paced, so
// serial ns/op is about groupCommitInterval plus one fsync.
func BenchmarkJournalDurableAppend(b *testing.B) {
	rec := groupCommitRecord(1)
	rec.SpecHash = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	run := func(b *testing.B, appendAll func(j *journal)) {
		j := openTestJournal(b)
		b.ReportAllocs()
		b.ResetTimer()
		appendAll(j)
		b.StopTimer()
		b.ReportMetric(float64(j.stats().Syncs)/float64(b.N), "syncs/op")
	}
	b.Run("serial", func(b *testing.B) {
		run(b, func(j *journal) {
			for i := 0; i < b.N; i++ {
				if err := j.append(rec, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("parallel", func(b *testing.B) {
		run(b, func(j *journal) {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := j.append(rec, true); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	})
}
