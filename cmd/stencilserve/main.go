// Command stencilserve is a multi-tenant stencil-simulation service: it
// accepts jobspec JSON over HTTP, runs each job on an isolated deterministic
// engine in a sharded worker pool, streams per-job NDJSON telemetry, and
// exploits determinism with two cache layers (whole-result and setup).
// Tenants (X-Tenant) are served round-robin, a full queue answers 429 with a
// Retry-After hint, and a job whose run panics fails on that first panic.
//
//	stencilserve -addr :8080          # serve until SIGTERM (graceful drain)
//	stencilserve -data-dir /var/lib/stencilserve -addr :8080
//	                                  # durable: journal + cache spill, crash-safe
//	stencilserve -loadtest 2000       # self-contained load test, JSON report
//	stencilserve -smoke               # deterministic smoke matrix (CI gate)
//	stencilserve -crashsmoke          # kill/recover + journal-overhead report
//	stencilserve -journal-dump DIR    # pretty-print a data directory's journal
//	stencilserve -journal-compact DIR # compact a data directory's journal in place
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/nodeaware/stencil/internal/fault"
	"github.com/nodeaware/stencil/internal/jobspec"
	"github.com/nodeaware/stencil/internal/serve"
)

func main() { jobspec.Main(run) }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stencilserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", serve.DefaultQueueDepth, "bounded job queue depth (backpressure beyond it)")
	resultCache := fs.Int("result-cache", 4096, "whole-result cache entries")
	setupCache := fs.Int("setup-cache", 4096, "setup (placement) cache entries")
	loadtest := fs.Int("loadtest", 0, "run a self-contained load test with N jobs and exit")
	concurrency := fs.Int("concurrency", 64, "load-test client concurrency")
	smoke := fs.Bool("smoke", false, "run the deterministic smoke matrix and exit")
	outPath := fs.String("out", "", "write the load-test/smoke report here instead of stdout")
	dataDir := fs.String("data-dir", "", "durable data directory (job journal + cache spill); empty = in-memory")
	journalDump := fs.String("journal-dump", "", "pretty-print the journal in this data directory (or file) and exit")
	crashsmoke := fs.Bool("crashsmoke", false, "run the kill/recover crash smoke and journal-overhead measurement, then exit")
	ref := fs.String("ref", "", "crashsmoke: gate against this reference report (byte-exact deterministic section, overhead <= 1.5x)")
	journalCompact := fs.String("journal-compact", "", "compact the journal in this data directory in place and exit")
	compactBytes := fs.Int64("compact-bytes", 0, "journal size that triggers automatic compaction (0 = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	report := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		report = f
	}

	cfg := serve.Config{
		Workers:            *workers,
		QueueDepth:         *queueDepth,
		ResultCacheEntries: *resultCache,
		SetupCacheEntries:  *setupCache,
		DataDir:            *dataDir,
		CompactBytes:       *compactBytes,
	}
	switch {
	case *journalDump != "":
		var buf bytes.Buffer
		if err := serve.DumpJournal(*journalDump, &buf); err != nil {
			return err
		}
		_, err := report.Write(buf.Bytes())
		return err
	case *journalCompact != "":
		before, after, err := serve.CompactDataDir(*journalCompact)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "compacted %s: %d -> %d bytes (%.1f%% kept)\n",
			*journalCompact, before, after, 100*float64(after)/float64(max(before, 1)))
		return nil
	case *crashsmoke:
		return runCrashSmoke(cfg, *ref, report, out)
	case *smoke:
		return runSmoke(cfg, report)
	case *loadtest > 0:
		if cfg.QueueDepth < *loadtest+64 {
			cfg.QueueDepth = *loadtest + 64
		}
		return runLoadTest(cfg, *loadtest, *concurrency, report, out)
	}
	return serveForever(cfg, *addr, out)
}

// serveForever runs the HTTP service until SIGINT/SIGTERM, then drains:
// intake stops (503), queued and running jobs finish, and the listener
// closes.
func serveForever(cfg serve.Config, addr string, out io.Writer) error {
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	s, err := serve.Open(cfg)
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: addr, Handler: s.Handler()}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "stencilserve listening on %s (%d workers, queue %d)\n",
		ln.Addr(), cfg.Workers, cfg.QueueDepth)
	if cfg.DataDir != "" {
		rec := s.Recovery()
		fmt.Fprintf(out, "durable data dir %s: recovered %d journal records (%d torn), re-enqueued %d jobs, restored %d terminal, rehydrated %d results / %d setups\n",
			cfg.DataDir, rec.JournalRecords, rec.TornRecords, rec.Reenqueued, rec.Completed,
			rec.ResultsRehydrated, rec.SetupsRehydrated)
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case got := <-sig:
		fmt.Fprintf(out, "received %s, draining...\n", got)
	}
	s.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Fprintln(out, "drained; all jobs complete")
	return nil
}

// ---- job matrices ----

// tinySpec is the small base job both harnesses build on: fast enough to run
// thousands of times, big enough to exercise placement and specialization.
func tinySpec() *jobspec.Spec {
	s := jobspec.Default()
	s.RanksPerNode = 2
	s.Domain = "12"
	s.Radius = 1
	s.Quantities = 1
	s.Iters = 2
	return s
}

// smokeMatrix is the deterministic CI job set: distinct setups, a shared-
// setup pair, a capability downgrade, a fault scenario, and a verify job.
func smokeMatrix() []struct {
	Name string
	Spec *jobspec.Spec
} {
	base := tinySpec()

	longer := tinySpec()
	longer.Iters = 4 // same setup hash as base → setup-cache hit

	remote := tinySpec()
	remote.Caps = "remote"

	twoNode := tinySpec()
	twoNode.Nodes = 2
	twoNode.Domain = "24"

	degraded := tinySpec()
	degraded.Iters = 4
	sc := &fault.Scenario{Name: "smoke-degrade"}
	sc.DegradeNIC(2e-4, 0, 0.5)
	degraded.Scenario = sc

	verify := tinySpec()
	verify.Verify = true

	return []struct {
		Name string
		Spec *jobspec.Spec
	}{
		{"base", base},
		{"base-longer", longer},
		{"remote-caps", remote},
		{"two-node", twoNode},
		{"degraded-nic", degraded},
		{"verify", verify},
	}
}

// ---- smoke mode ----

// smokeJob is one matrix entry's deterministic record.
type smokeJob struct {
	Name         string `json:"name"`
	SpecHash     string `json:"spec_hash"`
	SetupHash    string `json:"setup_hash"`
	ResultSHA256 string `json:"result_sha256"`
	Pass1Cache   string `json:"pass1_cache"` // "" or "setup"
	Pass2Cache   string `json:"pass2_cache"` // must be "result"
	Identical    bool   `json:"bodies_identical"`
}

// smokeReport is the CI-gated document: every field is deterministic (spec
// hashes, result digests, cache outcomes of a sequential two-pass run).
type smokeReport struct {
	Schema string     `json:"schema"`
	Jobs   []smokeJob `json:"jobs"`
	// ResultCacheHits counts pass-2 hits; with a sequential single worker
	// it equals the matrix size.
	ResultCacheHits int64 `json:"result_cache_hits"`
	SetupCacheHits  int64 `json:"setup_cache_hits"`
	AllFromCache    bool  `json:"all_from_cache"`
}

// runSmoke submits the matrix twice over real HTTP with a single worker
// (sequential, so cache outcomes are deterministic), asserts the second pass
// is served from the result cache with byte-identical bodies, and writes the
// deterministic report.
func runSmoke(cfg serve.Config, report io.Writer) error {
	cfg.Workers = 1
	s := serve.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	matrix := smokeMatrix()
	rep := smokeReport{Schema: "stencilserve-smoke/1", AllFromCache: true}
	bodies := make(map[string][]byte)

	for pass := 1; pass <= 2; pass++ {
		for i, m := range matrix {
			st, err := submitAndWait(base, "smoke", m.Spec)
			if err != nil {
				return fmt.Errorf("pass %d %s: %w", pass, m.Name, err)
			}
			body, err := fetch(base + "/v1/jobs/" + st.ID + "/result")
			if err != nil {
				return fmt.Errorf("pass %d %s result: %w", pass, m.Name, err)
			}
			if pass == 1 {
				sum := sha256.Sum256(body)
				rep.Jobs = append(rep.Jobs, smokeJob{
					Name:         m.Name,
					SpecHash:     st.SpecHash,
					SetupHash:    st.SetupHash,
					ResultSHA256: hex.EncodeToString(sum[:]),
					Pass1Cache:   st.Cache,
				})
				bodies[m.Name] = body
				continue
			}
			j := &rep.Jobs[i]
			j.Pass2Cache = st.Cache
			j.Identical = bytes.Equal(body, bodies[m.Name])
			if st.Cache != "result" || !j.Identical {
				rep.AllFromCache = false
			}
		}
	}
	rep.ResultCacheHits, _, rep.SetupCacheHits, _ = s.CacheStats()
	s.Drain()

	enc := json.NewEncoder(report)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if !rep.AllFromCache {
		return fmt.Errorf("smoke: second pass was not fully served from the result cache")
	}
	return nil
}

// ---- load-test mode ----

// loadReport archives a load-test run; wall-clock figures vary by host, so
// this document is informational, not byte-gated.
type loadReport struct {
	Schema       string  `json:"schema"`
	Jobs         int     `json:"jobs"`
	DistinctJobs int     `json:"distinct_jobs"`
	Concurrency  int     `json:"concurrency"`
	Workers      int     `json:"workers"`
	WallSeconds  float64 `json:"wall_s"`
	JobsPerSec   float64 `json:"jobs_per_sec"`

	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP90Ms float64 `json:"latency_p90_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	LatencyMaxMs float64 `json:"latency_max_ms"`

	ResultCacheHits   int64   `json:"result_cache_hits"`
	ResultCacheMisses int64   `json:"result_cache_misses"`
	ResultHitRate     float64 `json:"result_hit_rate"`
	SetupCacheHits    int64   `json:"setup_cache_hits"`

	Failed int `json:"failed"`
}

// loadSpecs builds the distinct jobs the load mix cycles through.
func loadSpecs() []*jobspec.Spec {
	var specs []*jobspec.Spec
	for _, iters := range []int{1, 2, 3} {
		for _, caps := range []string{"kernel", "remote"} {
			sp := tinySpec()
			sp.Iters = iters
			sp.Caps = caps
			specs = append(specs, sp)
		}
	}
	sc := &fault.Scenario{Name: "load-degrade"}
	sc.DegradeNIC(2e-4, 0, 0.5)
	faulty := tinySpec()
	faulty.Iters = 3
	faulty.Scenario = sc
	specs = append(specs, faulty)

	two := tinySpec()
	two.Nodes = 2
	two.Domain = "24"
	specs = append(specs, two)
	return specs
}

// runLoadTest drives n submissions through the real HTTP stack from a
// bounded client pool and archives throughput, latency percentiles, and
// cache hit rates.
func runLoadTest(cfg serve.Config, n, concurrency int, report, log io.Writer) error {
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	s := serve.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	specs := loadSpecs()
	fmt.Fprintf(log, "load test: %d jobs (%d distinct), %d client workers, %d engine workers\n",
		n, len(specs), concurrency, cfg.Workers)

	latencies := make([]float64, n)
	failures := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				sp := *specs[i%len(specs)]
				t0 := time.Now()
				st, err := submitAndWait(base, fmt.Sprintf("tenant-%d", i%7), &sp)
				latencies[i] = time.Since(t0).Seconds() * 1e3
				if err != nil {
					failures[i] = err
				} else if st.State != "done" {
					failures[i] = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start).Seconds()
	s.Drain()

	failed := 0
	for _, err := range failures {
		if err != nil {
			if failed == 0 {
				fmt.Fprintf(log, "first failure: %v\n", err)
			}
			failed++
		}
	}
	sort.Float64s(latencies)
	pct := func(p float64) float64 { return latencies[int(p*float64(n-1))] }
	rh, rm, sh, _ := s.CacheStats()
	rep := loadReport{
		Schema:            "stencilserve-load/1",
		Jobs:              n,
		DistinctJobs:      len(specs),
		Concurrency:       concurrency,
		Workers:           cfg.Workers,
		WallSeconds:       wall,
		JobsPerSec:        float64(n) / wall,
		LatencyP50Ms:      pct(0.50),
		LatencyP90Ms:      pct(0.90),
		LatencyP99Ms:      pct(0.99),
		LatencyMaxMs:      latencies[n-1],
		ResultCacheHits:   rh,
		ResultCacheMisses: rm,
		ResultHitRate:     float64(rh) / float64(rh+rm),
		SetupCacheHits:    sh,
		Failed:            failed,
	}
	enc := json.NewEncoder(report)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("load test: %d of %d jobs failed", failed, n)
	}
	fmt.Fprintf(log, "load test: %d jobs in %.2fs (%.0f jobs/s), hit rate %.1f%%\n",
		n, wall, rep.JobsPerSec, 100*rep.ResultHitRate)
	return nil
}

// ---- HTTP client helpers ----

// submitAndWait submits a job and blocks for its terminal state. Any
// answer but 202 is an error: the load test sizes the queue to hold every
// job, and the smoke run submits one job at a time, so neither expects a 429.
func submitAndWait(base, tenant string, spec *jobspec.Spec) (serve.Status, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return serve.Status{}, err
	}
	req, err := http.NewRequest("POST", base+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		return serve.Status{}, err
	}
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return serve.Status{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return serve.Status{}, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return serve.Status{}, fmt.Errorf("submit: %d %s", resp.StatusCode, b)
	}
	var st serve.Status
	err = json.Unmarshal(b, &st)
	return st, err
}

func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %d %s", url, resp.StatusCode, b)
	}
	return b, nil
}
