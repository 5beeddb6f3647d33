package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nodeaware/stencil/internal/fault"
	"github.com/nodeaware/stencil/internal/jobspec"
	"github.com/nodeaware/stencil/internal/serve"
)

const (
	serveWorkers = 2 // engine workers, one per core of the reference host
	serveClients = 2 // closed-loop clients, one connection each
	serveTenants = 7 // tenants the jobs are spread over, as in the load test
	// serveRestarts is how many times the server restarts, after each
	// equal share of the jobs; each restart's recovery Open is a setup_s
	// sample.
	serveRestarts = 5
	// serveJobsPerSecond sets the measured job count from --seconds. The
	// count is fixed rather than the time, because the server keeps every
	// job it has run: memory and the journal grow with jobs, and a faster
	// server must not read as a larger one. The reference host runs about
	// 600 jobs/s, so the measured jobs take most of --seconds.
	serveJobsPerSecond = 500
)

// servePool is the job mix of stencilserve's own load test (`stencilserve
// -loadtest`, archived in results/SERVE.json): a one-node two-rank tiny job
// at 1, 2 and 3 iterations with kernel and remote methods, the same job at 3
// iterations under a degraded NIC, and a two-node job. Job i is pool entry
// i mod 8 from tenant i mod 7, so the first lap of the pool runs the engine
// and nearly every later job is a result-cache hit (a repeat submitted while
// its first run is still in flight runs again). The seed shifts both domain
// edges by (seed mod 5) - 2 cells and rotates the pool and the tenants.
func servePool(seed int64) []jobspec.Spec {
	tiny := func() jobspec.Spec {
		sp := *jobspec.Default()
		sp.RanksPerNode, sp.Domain, sp.Radius, sp.Quantities = 2, strconv.Itoa(seededEdge(12, seed)), 1, 1
		return sp
	}
	var pool []jobspec.Spec
	for _, iters := range []int{1, 2, 3} {
		for _, caps := range []string{"kernel", "remote"} {
			sp := tiny()
			sp.Iters, sp.Caps = iters, caps
			pool = append(pool, sp)
		}
	}
	faulty := tiny()
	faulty.Iters = 3
	faulty.Scenario = (&fault.Scenario{Name: "load-degrade"}).DegradeNIC(2e-4, 0, 0.5)
	two := tiny()
	two.Nodes, two.Domain = 2, strconv.Itoa(seededEdge(24, seed))
	pool = append(pool, faulty, two)
	rot := int((seed%int64(len(pool)) + int64(len(pool))) % int64(len(pool)))
	return append(pool[rot:], pool[:rot]...)
}

// serveTenant is the tenant of job i.
func serveTenant(i int, seed int64) string {
	return fmt.Sprintf("tenant-%d", (i+int((seed%serveTenants+serveTenants)%serveTenants))%serveTenants)
}

// resultCheck enforces the service's contract: every job ends done, and
// every result for one spec hash is byte-identical. It maps a spec hash to
// the first result seen for it.
type resultCheck map[string][]byte

func (r resultCheck) check(id, hash string, state serve.State, body []byte) error {
	if state != serve.StateDone {
		return fmt.Errorf("job %s ended %s", id, state)
	}
	if len(body) == 0 {
		return fmt.Errorf("job %s: empty result", id)
	}
	prev, ok := r[hash]
	if !ok {
		r[hash] = body
	} else if !bytes.Equal(prev, body) {
		return fmt.Errorf("job %s: result differs from an earlier result for spec hash %s", id, hash)
	}
	return nil
}

// serveSample is one client-side job: POST /v1/jobs?wait=1, then GET its
// result.
type serveSample struct {
	start, posted, end time.Time
	st                 serve.Status
	body               []byte
	err                error
}

func (s serveSample) latencyMs() float64 { return ms(s.end.Sub(s.start)) }

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

type client struct {
	base string
	hc   *http.Client
}

func (cl *client) do(tenant string, sp jobspec.Spec) (s serveSample) {
	s.start = time.Now()
	defer func() { s.end = time.Now() }()
	body, err := json.Marshal(&sp)
	if err != nil {
		s.err = err
		return s
	}
	b, code, err := cl.send(http.MethodPost, "/v1/jobs?wait=1", tenant, body)
	s.posted = time.Now()
	switch {
	case err != nil:
		s.err = err
		return s
	case code != http.StatusAccepted:
		s.err = fmt.Errorf("submit: status %d: %s", code, bytes.TrimSpace(b))
		return s
	}
	if err := json.Unmarshal(b, &s.st); err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}
	s.body, code, err = cl.send(http.MethodGet, "/v1/jobs/"+s.st.ID+"/result", tenant, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result of %s: status %d: %s", s.st.ID, code, bytes.TrimSpace(s.body))
	}
	s.err = err
	return s
}

func (cl *client) send(method, path, tenant string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, cl.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := cl.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// drive runs the closed loop over jobs from, from+1, ..., from+n-1: each
// client sends its next job only after it has fetched the previous job's
// result.
func drive(cl *client, pool []jobspec.Spec, seed int64, from, n int) []serveSample {
	var next atomic.Int64
	next.Store(int64(from))
	per := make([][]serveSample, serveClients)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < from+n; i = int(next.Add(1) - 1) {
				per[w] = append(per[w], cl.do(serveTenant(i, seed), pool[i%len(pool)]))
			}
		}(w)
	}
	wg.Wait()
	var out []serveSample
	for _, s := range per {
		out = append(out, s...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// segment is one server lifetime of serve-mixed: the jobs driven over HTTP
// between two restarts, and what the server counted meanwhile.
type segment struct {
	samples                []serveSample
	busy                   time.Duration // first submit to last result
	resultHits, resultMiss int64
	setupHits, setupMiss   int64
	journal                serve.JournalStats
}

// runSegment serves s over loopback HTTP, drives jobs from to from+n-1
// through it, and drains it.
func runSegment(s *serve.Server, pool []jobspec.Spec, seed int64, from, n int) (segment, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Drain()
		return segment{}, err
	}
	hs := &http.Server{Handler: s.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tp := &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}
	cl := &client{base: "http://" + ln.Addr().String(), hc: &http.Client{Transport: tp, Timeout: time.Minute}}

	// Recovery looks results up too; only the lookups of driven jobs count.
	rh0, rm0, sh0, sm0 := s.CacheStats()
	seg := segment{samples: drive(cl, pool, seed, from, n)}
	rh, rm, sh, sm := s.CacheStats()
	seg.resultHits, seg.resultMiss, seg.setupHits, seg.setupMiss = rh-rh0, rm-rm0, sh-sh0, sm-sm0
	seg.journal = s.JournalStats()
	s.Drain()
	hs.Close()
	<-served
	tp.CloseIdleConnections()
	if len(seg.samples) > 0 {
		first, last := seg.samples[0].start, seg.samples[0].end
		for _, smp := range seg.samples {
			if smp.end.After(last) {
				last = smp.end
			}
		}
		seg.busy = last.Sub(first)
	}
	return seg, nil
}

// runServe drives an in-process stencilserve with a durable data directory
// (a job is acknowledged after its journal record is fsync'd) over loopback
// HTTP: two closed-loop clients run the load test's job mix. The server
// restarts after every fifth of the jobs, and each restart is a timed
// recovery Open over the journal so far: setup_s is what a restart costs,
// sampled across the whole pass.
func runServe(rc runConfig, c *collector, tr *tracer) error {
	if err := os.MkdirAll(rc.work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(rc.work, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := serve.Config{Workers: serveWorkers, DataDir: dir}
	pool := servePool(rc.seed)
	wl := tr.open("workload", -1, 0)
	defer tr.close(wl)

	// At least three laps of the pool, so the engine runs are a minority.
	jobs := max(int(rc.seconds*serveJobsPerSecond), 3*len(pool))
	var (
		segs    []segment
		opens   []float64
		records int
		rt      rtDelta
	)
	for k := 0; k <= serveRestarts; k++ {
		runtime.GC()
		sp := tr.open("open", -1, wl)
		t0 := time.Now()
		s, err := serve.Open(cfg)
		d := time.Since(t0)
		tr.close(sp)
		if err != nil {
			return fmt.Errorf("open %d: %w", k, err)
		}
		if k > 0 {
			opens = append(opens, d.Seconds())
			records = s.Recovery().JournalRecords
		}
		if k == serveRestarts {
			s.Drain()
			break
		}
		// The traced pass profiles every segment but the first, which is
		// the baseline for trace.overhead_ratio; the profile runs on through
		// the restarts after them.
		traced := rc.traced && k > 0
		if traced {
			if err := tr.startProfile(); err != nil {
				s.Drain()
				return err
			}
		}
		r0 := readRuntime()
		seg, err := runSegment(s, pool, rc.seed, k*jobs/serveRestarts, (k+1)*jobs/serveRestarts-k*jobs/serveRestarts)
		if err != nil {
			return err
		}
		if traced {
			rt.add(r0, readRuntime())
		}
		segs = append(segs, seg)
	}
	cpu, err := tr.stopProfile()
	if err != nil {
		return err
	}

	results := resultCheck{}
	var all, base, traced []serveSample
	var busy time.Duration
	var rh, rm, sh, sm, syncs, recs int64
	for k, seg := range segs {
		for _, smp := range seg.samples {
			err := smp.err
			if err == nil {
				err = results.check(smp.st.ID, smp.st.SpecHash, smp.st.State, smp.body)
			}
			c.op(err)
		}
		all = append(all, seg.samples...)
		if rc.traced && k > 0 {
			traced = append(traced, seg.samples...)
		} else {
			base = append(base, seg.samples...)
		}
		busy += seg.busy
		rh, rm, sh, sm = rh+seg.resultHits, rm+seg.resultMiss, sh+seg.setupHits, sm+seg.setupMiss
		syncs, recs = syncs+seg.journal.Syncs, recs+seg.journal.Records
	}
	if !rc.traced {
		lat := latencies(all)
		c.set("op_wall_ms_p50", median(lat), len(lat))
		c.set("ops_per_s", float64(len(all))/busy.Seconds(), len(all))
		c.set("setup_s", median(opens), len(opens))
		return nil
	}

	// The server-side split and the cache classes come from every job of
	// the pass: the engine runs fall in the first lap, which is untraced.
	setCPUShares(c, cpu)
	var warm, cold, queue, run, overhead []float64
	for i, smp := range all {
		if smp.err != nil || smp.st.Started == nil || smp.st.Finished == nil {
			continue
		}
		job := tr.add("job", i, wl, smp.start, smp.end)
		submit := tr.add("submit", i, job, smp.start, smp.posted)
		tr.add("wait", i, submit, smp.st.Submitted, *smp.st.Finished)
		tr.add("fetch", i, job, smp.posted, smp.end)
		if smp.st.Cache == "result" {
			warm = append(warm, smp.latencyMs())
		} else {
			cold = append(cold, smp.latencyMs())
			queue = append(queue, ms(smp.st.Started.Sub(smp.st.Submitted)))
			run = append(run, ms(smp.st.Finished.Sub(*smp.st.Started)))
		}
		overhead = append(overhead, smp.latencyMs()-ms(smp.st.Finished.Sub(smp.st.Submitted)))
	}
	lat := latencies(traced)
	c.set("trace.overhead_ratio", median(lat)/median(latencies(base)), len(lat))
	c.set("serve.queue_wait_ms_p50", median(queue), len(queue))
	c.set("serve.run_ms_p50", median(run), len(run))
	c.set("serve.warm_latency_ms_p50", median(warm), len(warm))
	c.set("serve.cold_latency_ms_p50", median(cold), len(cold))
	c.set("serve.http_overhead_ms_p50", median(overhead), len(overhead))
	c.set("serve.job_latency_ms_p99", percentile(latencies(all), 99), len(all))
	c.set("serve.result_hit_ratio", float64(rh)/float64(rh+rm), int(rh+rm))
	c.set("serve.setup_hit_ratio", float64(sh)/float64(sh+sm), int(sh+sm))
	c.set("serve.journal_syncs_per_job", float64(syncs)/float64(len(all)), len(all))
	c.set("serve.journal_records_per_job", float64(recs)/float64(len(all)), len(all))
	c.set("serve.recover_us_per_record", opens[len(opens)-1]*1e6/float64(records), records)
	rt.report(c, len(traced))
	return timeLayers(c, tr, layerInputs{
		haloSize: realdataSubdomain(rc), domain: cube(seededEdge(24, rc.seed)), nodes: 2, specs: pool,
	})
}

func latencies(samples []serveSample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		out = append(out, s.latencyMs())
	}
	return out
}
