package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	stencil "github.com/nodeaware/stencil"
	"github.com/nodeaware/stencil/internal/exchange"
	"github.com/nodeaware/stencil/internal/figures"
	"github.com/nodeaware/stencil/internal/jobspec"
	"github.com/nodeaware/stencil/internal/part"
)

// workload is one benchmark input set. run performs one pass of it: the
// timed pass, or with rc.traced the traced pass.
type workload struct {
	name string
	// referenced workloads have bit-exact virtual times in ref.json.
	referenced bool
	run        func(rc runConfig, c *collector, tr *tracer) error
}

// The workloads stress different layers (README.md has the table): weak64
// the engine and allocator, weak32-exact the exact waterfill, realdata-verify
// the byte-moving halo and MPI envelope paths, serve-mixed the job service.
var workloads = []workload{
	{name: "weak64", referenced: true, run: simWorkload{name: "weak64", nodes: 64, exchanges: 3, jobSeconds: 3.1, setupsPerJob: 3}.run},
	{name: "weak32-exact", referenced: true, run: simWorkload{name: "weak32-exact", nodes: 32, exchanges: 2, jobSeconds: 4.8, setupsPerJob: 4}.run},
	{name: "realdata-verify", referenced: true, run: runRealData},
	{name: "serve-mixed", run: runServe},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// seededEdge shifts a domain edge by (seed mod 5) - 2 cells.
func seededEdge(base int, seed int64) int {
	return base + int((seed%5+5)%5) - 2
}

func cube(edge int) part.Dim3 { return part.Dim3{X: edge, Y: edge, Z: edge} }

// minJobs is how many jobs a simulation pass runs at least, so that every
// median stands on three jobs or more.
const minJobs = 3

// fixedJobs is the job count of a pass: as many jobs as take about seconds
// on the reference host, where one job takes jobSeconds, and at least
// minJobs. It depends on the arguments only, never on a clock.
func fixedJobs(seconds, jobSeconds float64) int {
	return max(minJobs, int(math.Round(seconds/jobSeconds)))
}

// jobLoop runs job(0) to job(n-1), each after an untimed garbage collection,
// so no job inherits another's garbage.
func jobLoop(n int, job func(i int) error) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		if err := job(i); err != nil {
			return err
		}
	}
	return nil
}

// iterClock times single exchanges inside one Run. The exchange layer polls
// Options.Preempt once per iteration at the coordinator's safe point, and a
// poll that never returns true leaves the run byte-identical, so the poll
// times split the run's wall time into its exchanges.
type iterClock struct{ marks []time.Time }

func (k *iterClock) poll() bool {
	k.marks = append(k.marks, time.Now())
	return false
}

// since returns the wall milliseconds of each exchange polled since start,
// and forgets them.
func (k *iterClock) since(start time.Time) []float64 {
	out := make([]float64, len(k.marks))
	for i, m := range k.marks {
		out[i] = ms(m.Sub(start))
		start = m
	}
	k.marks = k.marks[:0]
	return out
}

// timeSetups runs setup n times, each after an untimed garbage collection,
// and returns the wall seconds of each. A timed job adds these set-ups, whose
// result is dropped, to its own, so setup_s is a median of samples spread
// over the whole pass rather than bunched at its end, where one slow patch
// of a shared host would move them all.
func timeSetups(n int, setup func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t).Seconds())
	}
	return out, nil
}

// virtualCheck holds the per-iteration virtual times every job of one
// configuration must reproduce bit for bit: the reference when ref.json
// has the configuration, else the first job of the run.
type virtualCheck struct {
	key    string
	want   []float64
	record map[string][]float64
}

func newVirtualCheck(rc runConfig, key string) *virtualCheck {
	return &virtualCheck{key: key, want: rc.ref[key], record: rc.record}
}

func (v *virtualCheck) iterations(got []float64) error {
	if v.want == nil {
		v.want = append([]float64(nil), got...)
		if v.record != nil {
			v.record[v.key] = v.want
		}
		return nil
	}
	if len(got) != len(v.want) {
		return fmt.Errorf("%s: %d iterations, want %d", v.key, len(got), len(v.want))
	}
	for i := range got {
		if got[i] != v.want[i] {
			return fmt.Errorf("%s: iteration %d took %v s of virtual time, want %v", v.key, i, got[i], v.want[i])
		}
	}
	return nil
}

// writeReference regenerates ref.json: the iteration virtual times of the
// first job of every referenced workload for seeds 1 to 3; the pass's other
// jobs must repeat them. A change that moves virtual time regenerates it on
// purpose and says why.
func writeReference(path, work string) error {
	got := map[string][]float64{}
	for _, w := range workloads {
		if !w.referenced {
			continue
		}
		for seed := int64(1); seed <= 3; seed++ {
			c := newCollector()
			rc := runConfig{seed: seed, work: work, record: got}
			if err := w.run(rc, c, nil); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if c.failed > 0 {
				return fmt.Errorf("%s seed %d: %s", w.name, seed, c.failures[0])
			}
		}
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// simWorkload is the paper's Fig 12b weak-scaling configuration at one node
// count: six ranks and six GPUs per node, radius 2, four quantities, every
// transfer method, time-only (no bytes move) and default options, which
// means exact max-min fairness up to 32 nodes and a 1-hop horizon above.
// A job is exchange.New then Run(exchanges); each exchange is one sample.
type simWorkload struct {
	name       string
	nodes      int
	exchanges  int
	jobSeconds float64 // one job's wall time on the reference host
	// setupsPerJob is how many exchange.New calls a timed job times for
	// setup_s, its own included; each takes well under a tenth of a job.
	setupsPerJob int
}

func (s simWorkload) run(rc runConfig, c *collector, tr *tracer) error {
	nodes := s.nodes
	if rc.smoke {
		nodes = 2
	}
	opts := exchange.Options{
		Nodes: nodes, RanksPerNode: 6, Domain: cube(seededEdge(figures.CubeEdge(nodes*6), rc.seed)),
		Radius: 2, Quantities: 4, ElemSize: 4, Caps: exchange.CapsAll(), NodeAware: true,
	}
	check := newVirtualCheck(rc, s.name+" "+opts.ConfigString())
	clock := &iterClock{}
	opts.Preempt = clock.poll
	var (
		setupS, opMs, tracedMs []float64
		busy                   time.Duration
		ops, tracedJobs, plans int
		probe                  simProbe
		rt                     rtDelta
		events, procs          uint64
		peakQueue              int
		placeMs, planMs        []float64
	)
	wl := tr.open("workload", -1, 0)
	err := jobLoop(fixedJobs(rc.seconds, s.jobSeconds), func(i int) error {
		// The traced pass runs its first job untraced: the baseline for
		// trace.overhead_ratio and for the check that probes are passive.
		traced := rc.traced && i > 0
		t := tr.only(traced)
		if traced {
			if err := tr.startProfile(); err != nil {
				return err
			}
		}
		job := t.open("job", i, wl)
		sp := t.open("setup", i, job)
		t0 := time.Now()
		e, err := exchange.New(opts)
		setup := time.Since(t0)
		t.close(sp)
		if err != nil {
			return err
		}
		var r0 rtSnap
		if traced {
			probe.attach(e)
			r0 = readRuntime()
		}
		c0 := e.Eng.Counts()
		sp = t.open("run", i, job)
		t1 := time.Now()
		st := e.Run(s.exchanges)
		wall := time.Since(t1)
		t.close(sp)
		exchangeMs := clock.since(t1)
		sp = t.open("verify", i, job)
		c.op(check.iterations(st.Iterations))
		t.close(sp)
		t.close(job)

		if !traced {
			extra, err := timeSetups(s.setupsPerJob-1, func() error {
				_, err := exchange.New(opts)
				return err
			})
			if err != nil {
				return err
			}
			setupS = append(append(setupS, setup.Seconds()), extra...)
			opMs = append(opMs, exchangeMs...)
			busy += setup + wall
			ops += s.exchanges
			return nil
		}
		rt.add(r0, readRuntime())
		c1 := e.Eng.Counts()
		events += c1.Executed - c0.Executed
		procs += c1.Spawned - c0.Spawned
		peakQueue = max(peakQueue, c1.PeakQueue)
		tracedMs = append(tracedMs, exchangeMs...)
		tracedJobs++
		placeMs = append(placeMs, e.SetupPlacementWall.Seconds()*1e3)
		planMs = append(planMs, e.SetupPlanWall.Seconds()*1e3)
		plans = len(e.Plans)
		return nil
	})
	tr.close(wl)
	if err != nil {
		return err
	}
	if !rc.traced {
		c.set("op_wall_ms_p50", median(opMs), len(opMs))
		c.set("ops_per_s", float64(ops)/busy.Seconds(), ops)
		c.set("setup_s", median(setupS), len(setupS))
		return nil
	}
	cpu, err := tr.stopProfile()
	if err != nil {
		return err
	}
	setCPUShares(c, cpu)
	n, tracedOps := tracedJobs, len(tracedMs)
	ex := float64(tracedOps)
	c.set("trace.overhead_ratio", median(tracedMs)/median(opMs), tracedOps)
	c.set("flownet.rebalances_per_exchange", float64(probe.rebalances)/ex, tracedOps)
	c.set("flownet.links_per_rebalance", float64(probe.links)/float64(probe.rebalances), int(probe.rebalances))
	c.set("flownet.flows_per_rebalance", float64(probe.flows)/float64(probe.rebalances), int(probe.rebalances))
	c.set("flownet.us_per_rebalance", float64(cpu.layerNS["flownet"])/1e3/float64(probe.rebalances), int(probe.rebalances))
	c.set("sim.events_per_exchange", float64(events)/ex, tracedOps)
	c.set("sim.procs_per_exchange", float64(procs)/ex, tracedOps)
	c.set("sim.peak_queue", float64(peakQueue), n)
	c.set("sim.ns_per_event", float64(cpu.layerNS["sim"])/float64(events), int(events))
	c.set("cudart.ops_per_exchange", float64(probe.ops)/ex, tracedOps)
	c.set("cudart.bytes_per_exchange", float64(probe.opBytes)/ex, tracedOps)
	c.set("cudart.ns_per_op", float64(cpu.layerNS["cudart"])/float64(probe.ops), int(probe.ops))
	c.set("exchange.setup_placement_ms", median(placeMs), n)
	c.set("exchange.setup_plan_ms", median(planMs), n)
	c.set("exchange.plans", float64(plans), n)
	rt.report(c, tracedOps)
	return timeLayers(c, tr, layerInputs{
		haloSize: realdataSubdomain(rc), domain: opts.Domain, nodes: nodes,
		specs: []jobspec.Spec{{
			Nodes: nodes, RanksPerNode: 6, Domain: jobspec.FormatDomain(opts.Domain),
			Radius: 2, Quantities: 4, Caps: "kernel", Iters: s.exchanges,
		}},
	})
}

// realdataEdge is realdata-verify's domain edge: 192 (48 for the smoke
// test) shifted by the seed.
func realdataEdge(rc runConfig) int {
	if rc.smoke {
		return seededEdge(48, rc.seed)
	}
	return seededEdge(192, rc.seed)
}

// realdataSubdomain is the size of realdata-verify's first subdomain, the
// size every workload's halo timings run at.
func realdataSubdomain(rc runConfig) part.Dim3 {
	h, err := part.NewHier(cube(realdataEdge(rc)), 2, 6)
	if err != nil {
		panic(err) // the edge is a constant of the benchmark
	}
	_, size := h.Subdomain(h.NodeIndex(0), h.GPUIndex(0))
	return size
}

// seededFill is realdata-verify's analytic field: integers below 2^24, so
// exact in float32, offset by the seed.
func seededFill(seed int64) stencil.FillFunc {
	off := int((seed%4096+4096)%4096) * 131
	return func(q, x, y, z int) float32 {
		return float32((q*1000003 + z*9973 + y*97 + x + off) % (1 << 24))
	}
}

const (
	// realdataJobSeconds is one realdata-verify job's wall time on the
	// reference host.
	realdataJobSeconds = 3.6
	// realdataSetupsPerJob is how many stencil.New+Fill calls a timed job
	// times for setup_s, its own included.
	realdataSetupsPerJob = 2
)

// runRealData is the only workload that moves real bytes: 2 nodes, 2 ranks
// per node, reliable delivery, end-to-end verification, compute overlap and
// two payload workers. A job is stencil.New and Fill, Step with a no-op
// compute, then VerifyHalos against the fill.
func runRealData(rc runConfig, c *collector, tr *tracer) error {
	edge, steps := realdataEdge(rc), 20
	if rc.smoke {
		steps = 4
	}
	cfg := stencil.Config{
		Nodes: 2, RanksPerNode: 2, Domain: cube(edge), Radius: 2, Quantities: 4,
		Capabilities: stencil.CapsAll(), RealData: true, Overlap: true, Reliable: true,
		VerifyExchange: true, Workers: 2,
	}
	fill := seededFill(rc.seed)
	noop := func(*stencil.Subdomain) {}
	check := newVirtualCheck(rc, fmt.Sprintf("realdata-verify %dn/%dr/6g/%d", cfg.Nodes, cfg.RanksPerNode, edge))
	clock := &iterClock{}
	cfg.Preempt = clock.poll
	var (
		setupS, opMs, tracedMs []float64
		busy                   time.Duration
		ops, plans             int
		envelopes, retransmits int
		rt                     rtDelta
	)
	wl := tr.open("workload", -1, 0)
	err := jobLoop(fixedJobs(rc.seconds, realdataJobSeconds), func(i int) error {
		traced := rc.traced && i > 0
		t := tr.only(traced)
		if traced {
			if err := tr.startProfile(); err != nil {
				return err
			}
		}
		job := t.open("job", i, wl)
		sp := t.open("setup", i, job)
		t0 := time.Now()
		dd, err := stencil.New(cfg)
		if err != nil {
			return err
		}
		t.close(sp)
		sp = t.open("fill", i, job)
		dd.Fill(fill)
		setup := time.Since(t0)
		t.close(sp)
		var r0 rtSnap
		if traced {
			r0 = readRuntime()
		}
		sp = t.open("run", i, job)
		t1 := time.Now()
		st := dd.Step(steps, noop)
		wall := time.Since(t1)
		t.close(sp)
		exchangeMs := clock.since(t1)
		if traced {
			rt.add(r0, readRuntime())
		}
		sp = t.open("verify", i, job)
		errs := []error{check.iterations(st.Iterations)}
		if bad, detail := dd.VerifyHalos(fill); bad > 0 {
			errs = append(errs, fmt.Errorf("%d halo cells differ from the fill: %s", bad, detail))
		}
		if st.Delivery.Retransmits != 0 {
			errs = append(errs, fmt.Errorf("%d retransmits on a clean network", st.Delivery.Retransmits))
		}
		c.op(errors.Join(errs...))
		t.close(sp)
		t.close(job)

		if !traced {
			extra, err := timeSetups(realdataSetupsPerJob-1, func() error {
				dd, err := stencil.New(cfg)
				if err == nil {
					dd.Fill(fill)
				}
				return err
			})
			if err != nil {
				return err
			}
			setupS = append(append(setupS, setup.Seconds()), extra...)
			opMs = append(opMs, exchangeMs...)
			busy += setup + wall
			ops += steps
			return nil
		}
		tracedMs = append(tracedMs, exchangeMs...)
		envelopes += st.Delivery.Messages
		retransmits += st.Delivery.Retransmits
		plans = len(dd.PlanInfos())
		return nil
	})
	tr.close(wl)
	if err != nil {
		return err
	}
	if !rc.traced {
		c.set("op_wall_ms_p50", median(opMs), len(opMs))
		c.set("ops_per_s", float64(ops)/busy.Seconds(), ops)
		c.set("setup_s", median(setupS), len(setupS))
		return nil
	}
	cpu, err := tr.stopProfile()
	if err != nil {
		return err
	}
	setCPUShares(c, cpu)
	tracedOps := len(tracedMs)
	c.set("trace.overhead_ratio", median(tracedMs)/median(opMs), tracedOps)
	c.set("mpi.envelopes_per_exchange", float64(envelopes)/float64(tracedOps), tracedOps)
	c.set("mpi.retransmits", float64(retransmits), tracedOps)
	c.set("exchange.plans", float64(plans), tracedOps)
	rt.report(c, tracedOps)
	return timeLayers(c, tr, layerInputs{
		haloSize: realdataSubdomain(rc), domain: cfg.Domain, nodes: cfg.Nodes,
		specs: []jobspec.Spec{{
			Nodes: 2, RanksPerNode: 2, Domain: jobspec.FormatDomain(cfg.Domain), Radius: 2,
			Quantities: 4, Caps: "kernel", Iters: steps, Verify: true, Overlap: true,
			Reliable: true, VerifyExchange: true,
		}},
	})
}
