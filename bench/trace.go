package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"github.com/nodeaware/stencil/internal/cudart"
	"github.com/nodeaware/stencil/internal/exchange"
	"github.com/nodeaware/stencil/internal/sim"
)

// tracer records the traced pass: spans around every call the benchmark
// makes into a layer, the CPU profile of the traced jobs, and the layer
// timings. Everything stays in memory and is written when the run ends. All
// span methods are no-ops on a nil tracer, which is how untraced jobs run
// the same code.
type tracer struct {
	mu        sync.Mutex
	t0        time.Time
	spans     []span
	profile   bytes.Buffer
	profiling bool
	timings   []timing
}

// span is one timed call; spans of one job share its job id (-1 for the
// workload's own set-up).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// only returns t when on is set and nil otherwise.
func (t *tracer) only(on bool) *tracer {
	if on {
		return t
	}
	return nil
}

// open starts a span now and returns its id.
func (t *tracer) open(name string, job, parent int) int {
	return t.add(name, job, parent, time.Now(), time.Time{})
}

// close ends the span open returned.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// add records a span measured elsewhere; a zero end leaves it open.
func (t *tracer) add(name string, job, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	s := span{Parent: parent, Job: job, Name: name, Start: start.Sub(t.t0).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(t.t0).Nanoseconds()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// startProfile starts the CPU profile of the traced jobs, once.
func (t *tracer) startProfile() error {
	if t == nil || t.profiling {
		return nil
	}
	if err := pprof.StartCPUProfile(&t.profile); err != nil {
		return err
	}
	t.profiling = true
	return nil
}

// stopProfile ends the CPU profile and attributes it to layers.
func (t *tracer) stopProfile() (cpuProfile, error) {
	if t == nil || !t.profiling {
		return cpuProfile{}, nil
	}
	pprof.StopCPUProfile()
	t.profiling = false
	return layerCPU(t.profile.Bytes())
}

// write stores spans.ndjson, cpu.pprof and layers.json in dir.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var spans bytes.Buffer
	enc := json.NewEncoder(&spans)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	layers, err := json.MarshalIndent(t.timings, "", "  ")
	if err != nil {
		return err
	}
	for name, data := range map[string][]byte{
		"spans.ndjson": spans.Bytes(),
		"cpu.pprof":    t.profile.Bytes(),
		"layers.json":  append(layers, '\n'),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return nil
}

// setCPUShares reports each layer's share of the profiled CPU time.
func setCPUShares(c *collector, p cpuProfile) {
	samples := int(p.totalNS / 1e7) // one sample per 10 ms at the default rate
	for _, l := range cpuLayers {
		c.set(l+".cpu_share", float64(p.layerNS[l])/float64(p.totalNS), samples)
	}
	c.set("runtime.gc_cpu_share", float64(p.gcNS)/float64(p.totalNS), samples)
}

// rtSnap is a reading of the Go runtime's allocation counters.
type rtSnap struct {
	mallocs, totalAlloc, sys uint64
	numGC                    uint32
}

func readRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSnap{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc, sys: ms.Sys, numGC: ms.NumGC}
}

// rtDelta sums the runtime's work over the measured sections of a pass.
type rtDelta struct {
	mallocs, bytes uint64
	gcs            uint32
}

func (d *rtDelta) add(before, after rtSnap) {
	d.mallocs += after.mallocs - before.mallocs
	d.bytes += after.totalAlloc - before.totalAlloc
	d.gcs += after.numGC - before.numGC
}

func (d rtDelta) report(c *collector, ops int) {
	c.set("runtime.allocs_per_op", float64(d.mallocs)/float64(ops), ops)
	c.set("runtime.alloc_mb_per_op", float64(d.bytes)/1e6/float64(ops), ops)
	c.set("runtime.gc_cycles_per_op", float64(d.gcs)/float64(ops), ops)
}

// simProbe counts a traced job's work at the simulator's own hooks: every
// waterfill rebalance (flownet.Probe) and every completed stream operation
// (cudart.Runtime.OnOp). Both observe without acting; the traced pass checks
// that its virtual times equal the untraced job's.
type simProbe struct {
	rebalances, links, flows int64
	ops, opBytes             int64
}

func (p *simProbe) LinkSample(sim.Time, string, float64, int) {}

func (p *simProbe) Rebalanced(_ sim.Time, links, flows, _ int) {
	p.rebalances++
	p.links += int64(links)
	p.flows += int64(flows)
}

func (p *simProbe) attach(e *exchange.Exchanger) {
	e.M.Net.Probe = p
	e.RT.OnOp = func(r cudart.OpRecord) {
		p.ops++
		p.opBytes += r.Bytes
	}
}
