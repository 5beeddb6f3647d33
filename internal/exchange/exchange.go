// Package exchange implements the paper's setup phase 3 and the runtime halo
// exchange (§III-C, §III-D): capability-based selection among the five
// GPU-GPU transfer methods, per-direction transfer plans, and the overlapped
// execution of an exchange using sender/receiver state machines.
//
// The five methods, selected first-applicable per subdomain pair:
//
//	KERNEL           self-exchange via one device kernel (periodic wrap)
//	PEERMEMCPY       same rank, peer access: pack → cudaMemcpyPeerAsync → unpack
//	COLOCATEDMEMCPY  same node, different ranks: IPC-opened destination buffer
//	                 at setup, then pack → peer copy → unpack with no MPI
//	CUDAAWAREMPI     device buffers passed to MPI (when CUDA-aware enabled)
//	STAGED           pack → D2H → MPI over host buffers → H2D → unpack
//
// All methods are asynchronous; a rank issues every transfer it can, then
// drives per-message state machines (STAGED and CUDAAWAREMPI need CPU action
// between their CUDA and MPI phases) until everything completes.
package exchange

import (
	"fmt"

	"time"

	"github.com/nodeaware/stencil/internal/cudart"
	"github.com/nodeaware/stencil/internal/fault"
	"github.com/nodeaware/stencil/internal/halo"
	"github.com/nodeaware/stencil/internal/machine"
	"github.com/nodeaware/stencil/internal/mpi"
	"github.com/nodeaware/stencil/internal/nvml"
	"github.com/nodeaware/stencil/internal/part"
	"github.com/nodeaware/stencil/internal/placement"
	"github.com/nodeaware/stencil/internal/sim"
	"github.com/nodeaware/stencil/internal/telemetry"
)

// Method is one of the paper's five transfer methods.
type Method int

const (
	MethodKernel Method = iota
	MethodPeer
	MethodColocated
	MethodCudaAware
	MethodStaged
	numMethods
)

func (m Method) String() string {
	switch m {
	case MethodKernel:
		return "KERNEL"
	case MethodPeer:
		return "PEERMEMCPY"
	case MethodColocated:
		return "COLOCATEDMEMCPY"
	case MethodCudaAware:
		return "CUDAAWAREMPI"
	case MethodStaged:
		return "STAGED"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Capabilities is the paper's incremental capability ladder ("+remote",
// "+colo", "+peer", "+kernel"). Remote (STAGED or CUDAAWAREMPI) is always
// available; the others are enabled on top.
type Capabilities struct {
	Colocated bool
	Peer      bool
	Kernel    bool
}

// CapsRemote .. CapsAll name the ladder rungs used throughout the figures.
func CapsRemote() Capabilities { return Capabilities{} }
func CapsColo() Capabilities   { return Capabilities{Colocated: true} }
func CapsPeer() Capabilities   { return Capabilities{Colocated: true, Peer: true} }
func CapsAll() Capabilities    { return Capabilities{Colocated: true, Peer: true, Kernel: true} }

// Options configures an Exchanger.
type Options struct {
	Nodes        int
	RanksPerNode int
	Domain       part.Dim3
	Radius       int
	Quantities   int
	ElemSize     int

	Caps      Capabilities
	CUDAAware bool // remote messages use CUDAAWAREMPI instead of STAGED
	NodeAware bool // QAP placement (true) vs trivial linearized placement
	RealData  bool // allocate and move real bytes (small domains only)

	// Neighborhood selects the exchanged direction set by count: 0 (default)
	// or 26 for the full neighborhood, 6 for faces only (Fig 1(a)), 18 for
	// faces plus planar diagonals (Fig 1(b)).
	Neighborhood int

	// OpenBoundary disables periodic wrap-around: subdomains on the domain
	// boundary simply have no neighbor on that side and exchange nothing
	// there (the paper evaluates periodic boundaries but notes the
	// techniques apply to other types, §I).
	OpenBoundary bool

	// AggregateRemote packs all of a rank pair's inter-node STAGED messages
	// into a single MPI message per exchange (the paper's §VI idea from
	// ref [3]: fewer, larger messages).
	AggregateRemote bool

	// NoOverlap disables the §III-D overlap machinery: each transfer is
	// driven to completion before the next is issued (ablation baseline).
	NoOverlap bool

	// Overlap enables compute/communication overlap via persistent exchange
	// plans (see overlap.go): each iteration's transfer plan is registered
	// once as per-plan readiness state, inter-node STAGED messages ride
	// persistent MPI channels whose receivers are released at payload
	// acceptance (not at the sender's ACK), interior ("core") compute runs
	// while halos are in flight, and border compute is gated per subdomain on
	// the verified arrival of exactly the halos it reads — replacing the
	// global verification safe-point barrier of RunWithCompute with
	// per-quadrant safe points and pipelined verification. Final domain and
	// halo bytes are identical to barrier mode (the pipeline changes when
	// work happens, never what it computes; see DESIGN.md §11). Incompatible
	// with NoOverlap, AggregateRemote, AdaptPlacement, and CUDAAware.
	Overlap bool

	// Preempt, when set, is polled by the coordinator once per iteration at
	// its safe point; when it returns true every rank exits uniformly at the
	// next loop-top barrier and the run returns early with the iterations
	// completed so far (Preempted() reports it). This is the engine-loop
	// preemption hook the serving layer's job cancellation uses; it reads
	// host state, so runs that are actually preempted are not reproducible —
	// runs whose Preempt never fires are byte-identical to runs without it.
	Preempt func() bool

	// EmpiricalPlacement derives the placement distance matrix from a
	// pairwise transfer microbenchmark instead of the vendor topology query
	// (§VI: "investigate if empirical measurements provide better results").
	EmpiricalPlacement bool

	// NodeConfig and Params override the default Summit node and cost model.
	NodeConfig *machine.NodeConfig
	Params     *machine.Params

	// PresetPlacement injects a previously computed phase-2 result: one
	// subdomain→GPU permutation per node (the shape Assignment(n) returns),
	// skipping the QAP solve. The solver is deterministic, so a preset taken
	// from an identical configuration's run reproduces that run bit-exactly;
	// this is how the serving layer's setup cache shares placement work
	// across jobs that differ only in scenario or run length. The preset
	// must match the configuration (Nodes entries of GPUs-per-node length,
	// each a permutation) or New fails.
	PresetPlacement [][]int

	// Fault schedules a deterministic fault/degradation scenario on the
	// virtual clock (see internal/fault): link failures and degradations,
	// NIC flaps, GPU stragglers, rank pauses. Event times are measured from
	// the start of the run. Nil disables injection.
	Fault *fault.Scenario

	// Adaptive enables the degradation monitor: every AdaptCheckEvery
	// iterations (at the safe point after the timing allreduce) the health
	// of every plan's links is scanned and plans whose method crosses a
	// failed or degraded link are re-specialized down the capability ladder
	// (PEERMEMCPY falls back to STAGED when its NVLink dies, CUDAAWAREMPI
	// is demoted while the NIC is down, ...). When the links recover the
	// plans are promoted back; buffers and streams for every method a plan
	// has used are cached, so flip-flopping does not leak.
	Adaptive bool

	// AdaptThreshold is the link-health fraction (live capacity / healthy
	// capacity) below which a link counts as degraded. 0 defaults to 0.5.
	AdaptThreshold float64

	// AdaptCheckEvery runs the monitor every N iterations. 0 defaults to 1.
	AdaptCheckEvery int

	// AdaptPlacement additionally re-runs phase-2 placement against the
	// live (degraded) bandwidth matrix when a node's degradation persists
	// for AdaptPersistTicks consecutive monitor ticks, migrating subdomains
	// whose GPU changes (the migration copy is charged on the flow
	// network). Incompatible with AggregateRemote.
	AdaptPlacement bool

	// AdaptPersistTicks is the persistence horizon for AdaptPlacement.
	// 0 defaults to 3.
	AdaptPersistTicks int

	// CheckpointEvery enables the recovery layer: every K iterations (plus
	// once before the first iteration) each subdomain's full state is
	// snapshotted to its node's host memory as a real D2H copy competing for
	// link bandwidth, so checkpoint overhead shows in the virtual clock.
	// Permanent-loss fault events (GPUFail/RankFail) require it: on
	// detection, every rank rolls back to the last checkpoint epoch,
	// orphaned subdomains are re-placed over the surviving capability matrix
	// (their bytes migrating to the new homes as real flows), and the run
	// replays from the epoch's iteration. 0 disables checkpointing.
	// Incompatible with AggregateRemote and AdaptPlacement when fatal events
	// are scheduled. See recover.go and DESIGN.md "Failure model".
	CheckpointEvery int

	// SendTimeout enables MPI-level retries: a wire transfer still in
	// flight after this much virtual time is aborted and re-sent (up to
	// SendRetries attempts, then driven to completion regardless). 0
	// disables.
	SendTimeout sim.Time

	// SendRetries caps the abort/re-send cycles per message. 0 defaults
	// to 8 (when SendTimeout is set).
	SendRetries int

	// Reliable forces the MPI reliable-delivery envelope for inter-node
	// messages (checksums, sequence numbers, dedup, ACK/NACK with
	// retransmission; see internal/mpi/reliable.go) even on a clean network.
	// A fault scenario containing delivery faults (MsgDrop/MsgCorrupt/MsgDup)
	// arms it automatically, seeded with the scenario's Seed.
	Reliable bool

	// VerifyExchange enables end-to-end halo verification: after each
	// exchange, per-quadrant checksums are compared across the inter-node
	// wire and damaged quadrants are selectively re-exchanged (see
	// verify.go). Auto-enabled when the fault scenario schedules delivery
	// faults; meaningful only with RealData.
	VerifyExchange bool

	// QuarantineTicks is the clean-window hysteresis of link quarantine: a
	// quarantined link is re-admitted to method selection only after this
	// many consecutive fault-free monitor ticks (and a decayed health
	// score). 0 defaults to 5. Quarantine runs with Adaptive when the fault
	// scenario contains delivery or flap faults, or when this is set > 0.
	QuarantineTicks int

	// FairnessHorizon bounds how far a bandwidth-rebalance propagates in the
	// flow network (flownet.Network.MaxHops). 0 selects automatically: exact
	// max-min fairness up to 32 nodes, a 1-hop horizon beyond. On the 64-node
	// Fig 12b configuration the horizon's virtual time per exchange is 7-10%
	// above exact (18.25-18.73 ms against 17.03 ms), and it simulates about
	// 8x faster (0.79 s against 6.7 s of wall time per exchange on a 2-CPU
	// host). Negative forces exact; positive values are used directly.
	FairnessHorizon int

	// TraceOps records every CUDA op for Fig 9-style timelines.
	TraceOps bool

	// Workers sets the number of goroutines executing deferred payload work
	// (real-data byte copies and pack/unpack commits) between virtual-time
	// barriers. 0 or 1 keeps the engine fully sequential. Results are
	// bit-for-bit identical either way (see internal/sim/parallel.go and
	// TestParallelDeterminism); only RealData runs have meaningful payloads,
	// so that is where the speedup shows.
	Workers int

	// Telemetry, when set, receives the unified observability stream: link
	// utilization samples from every flow-network rebalance, setup and
	// per-iteration phase spans, CUDA op records, MPI retries, applied
	// faults, and adaptation decisions — all keyed by virtual time (see
	// internal/telemetry). Attaching a recorder never changes simulated
	// times: every hook is a passive observer at points the simulation
	// already visits.
	Telemetry *telemetry.Recorder
}

// Sub is one subdomain bound to a GPU.
type Sub struct {
	GPURankIdx int       // linearized GPU-space index within the node
	NodeIdx    part.Dim3 // node-space index
	GPUIdx     part.Dim3 // GPU-space index
	Global     part.Dim3 // combined global grid index
	NodeID     int       // machine node
	LocalGPU   int       // device within node after placement
	Rank       int       // owning MPI rank
	Dev        *cudart.Device
	Dom        *halo.Domain

	kernelStream *cudart.Stream
}

// Plan is one direction's transfer between two subdomains.
type Plan struct {
	ID     int
	Src    *Sub
	Dst    *Sub
	Dir    part.Dim3
	Method Method
	Bytes  int64
	Tag    int

	devSend, devRecv   *cudart.Buffer
	hostSend, hostRecv *cudart.Buffer
	sendStream         *cudart.Stream // on Src.Dev
	recvStream         *cudart.Stream // on Dst.Dev

	// resCache keeps the buffers and streams of every method this plan has
	// run under, so adaptive demote/promote cycles reuse rather than leak.
	resCache map[Method]*planRes

	// Aggregated inter-node STAGED messages share one MPI message per rank
	// pair; aggOffset locates this plan's slice in the group buffers.
	group     *msgGroup
	aggOffset int64

	// names caches the per-plan op labels (lazily built on first use) so
	// the per-iteration hot path doesn't re-Sprintf them.
	names *planNames
}

// planNames are the stream-op labels of one plan, formatted once.
type planNames struct {
	kernelEx, pack, unpack, peerCp, coloCp, d2h, h2d string
}

func (pl *Plan) opNames() *planNames {
	if pl.names == nil {
		id := pl.ID
		pl.names = &planNames{
			kernelEx: fmt.Sprintf("kernelex.p%d", id),
			pack:     fmt.Sprintf("pack.p%d", id),
			unpack:   fmt.Sprintf("unpack.p%d", id),
			peerCp:   fmt.Sprintf("peercp.p%d", id),
			coloCp:   fmt.Sprintf("colocp.p%d", id),
			d2h:      fmt.Sprintf("d2h.p%d", id),
			h2d:      fmt.Sprintf("h2d.p%d", id),
		}
	}
	return pl.names
}

// msgGroup is one rank pair's aggregated inter-node message.
type msgGroup struct {
	id                 int
	srcRank, dstRank   int
	plans              []*Plan
	hostSend, hostRecv *cudart.Buffer
	bytes              int64
	tag                int
}

// groupState is a msgGroup's per-iteration progress.
type groupState struct {
	remaining  int // D2H stagings not yet complete
	sendDone   *sim.Signal
	recvDone   *sim.Signal
	recvPosted bool
}

// Exchanger owns the full simulated job: machine, runtimes, decomposition,
// placement, and transfer plans.
type Exchanger struct {
	Eng  *sim.Engine
	M    *machine.Machine
	RT   *cudart.Runtime
	W    *mpi.World
	Hier *part.Hier
	Opts Options

	Subs  []*Sub // indexed by node rank * gpusPerNode + gpu rank idx
	Plans []*Plan
	// Assignments per node (index = node rank), for inspection.
	Assignments []*placement.Assignment

	gpusPerRank int
	dirs        []part.Dim3
	sendDuties  [][]*Plan // per rank
	recvDuties  [][]*Plan

	// Per-iteration cross-rank rendezvous for COLOCATEDMEMCPY events.
	slots map[slotKey]*sim.Signal

	// Aggregated inter-node messages (Options.AggregateRemote) and their
	// per-iteration state.
	groups      []*msgGroup
	groupStates map[slotKey]*groupState

	// Per-iteration readiness ledgers for compute/communication overlap
	// (Options.Overlap); see overlap.go.
	overlapStates map[int]*overlapIterState

	// stopped is latched by the coordinator when Options.Preempt reports a
	// cancellation; every rank observes it at the next loop-top barrier and
	// exits uniformly.
	stopped bool

	// Trace is populated when Opts.TraceOps is set.
	Trace []cudart.OpRecord

	// Faults is the installed injector when Opts.Fault is set (its Log is
	// the applied-fault timeline).
	Faults *fault.Injector

	// AdaptLog records every adaptation decision (method switches and
	// re-placements) in virtual-time order.
	AdaptLog []AdaptRecord

	// RecoveryLog records checkpoint, failure-detection, rollback, and
	// migration actions in virtual-time order; empty unless
	// Options.CheckpointEvery > 0.
	RecoveryLog []RecoveryRecord

	// coordRank performs the coordinator duties at the inter-iteration safe
	// point (timing record, adaptation tick, checkpoint, failure detection):
	// the lowest active rank, re-elected when recovery deactivates ranks.
	coordRank int

	// rec is the live checkpoint/recovery state during a Run with
	// CheckpointEvery > 0 (see recover.go).
	rec *recovery

	// degradeStreak counts, per node, consecutive monitor ticks with at
	// least one unhealthy intra-node link; replaceDone marks nodes already
	// re-placed for the current degradation episode.
	degradeStreak []int
	replaceDone   []bool

	// Adaptive-monitor caches (see adapt.go). adaptSeen is the flow network's
	// mutation counter (+1) at the last plan rescan: ticks with no link
	// fail/degrade/restore since then skip re-specialization entirely.
	// planPaths caches each plan's candidate link paths (invalidated by
	// re-placement); methodMemo maps a health mask to the full method vector
	// it selects, so recurring fault patterns (a flapping NIC) replay the
	// prior decision instead of re-running selection.
	adaptSeen  uint64
	planPaths  []planPaths
	methodMemo map[string][]Method

	// health scores links and quarantines flapping ones (health.go); nil
	// unless the options and fault scenario call for it.
	health *healthMonitor

	// verifier holds the end-to-end halo verification state (verify.go);
	// nil unless delivery faults or Options.VerifyExchange enable it.
	verifier *verifier

	// Setup wall-clock costs (host-side, not simulated): the paper's §VI
	// notes the placement algorithm should have negligible impact when
	// properly implemented; these make that measurable.
	SetupPlacementWall time.Duration
	SetupPlanWall      time.Duration
}

type slotKey struct {
	plan int
	iter int
}

// New builds the job: machine and runtimes, hierarchical partition, per-node
// placement, subdomain allocation, and one plan per (subdomain, direction).
func New(opts Options) (*Exchanger, error) {
	if opts.Nodes < 1 || opts.RanksPerNode < 1 {
		return nil, fmt.Errorf("exchange: %d nodes, %d ranks/node", opts.Nodes, opts.RanksPerNode)
	}
	if opts.Radius < 1 || opts.Quantities < 1 || opts.ElemSize < 1 {
		return nil, fmt.Errorf("exchange: bad stencil params r=%d q=%d e=%d", opts.Radius, opts.Quantities, opts.ElemSize)
	}
	if opts.AdaptPlacement && !opts.Adaptive {
		return nil, fmt.Errorf("exchange: AdaptPlacement requires Adaptive")
	}
	if opts.AdaptPlacement && opts.AggregateRemote {
		return nil, fmt.Errorf("exchange: AdaptPlacement is incompatible with AggregateRemote (aggregated messages pin rank pairs)")
	}
	if opts.Overlap {
		if opts.NoOverlap {
			return nil, fmt.Errorf("exchange: Overlap is incompatible with NoOverlap")
		}
		if opts.AggregateRemote {
			return nil, fmt.Errorf("exchange: Overlap is incompatible with AggregateRemote (aggregated messages have no per-quadrant arrival)")
		}
		if opts.AdaptPlacement {
			return nil, fmt.Errorf("exchange: Overlap is incompatible with AdaptPlacement (live re-placement needs the global quiescent safe point)")
		}
		if opts.CUDAAware {
			return nil, fmt.Errorf("exchange: Overlap is incompatible with CUDAAware (device-wide MPI synchronization would deadlock against gated border kernels)")
		}
	}
	if opts.AdaptThreshold < 0 || opts.AdaptThreshold > 1 {
		return nil, fmt.Errorf("exchange: AdaptThreshold %g outside [0, 1]", opts.AdaptThreshold)
	}
	if opts.CheckpointEvery < 0 {
		return nil, fmt.Errorf("exchange: CheckpointEvery %d < 0", opts.CheckpointEvery)
	}
	if opts.Fault != nil && opts.Fault.HasFatal() {
		if opts.CheckpointEvery < 1 {
			return nil, fmt.Errorf("exchange: fatal fault events (GPUFail/RankFail) require CheckpointEvery > 0")
		}
		if opts.AggregateRemote {
			return nil, fmt.Errorf("exchange: fatal fault events are incompatible with AggregateRemote (aggregated messages pin rank pairs)")
		}
		if opts.AdaptPlacement {
			return nil, fmt.Errorf("exchange: fatal fault events are incompatible with AdaptPlacement (recovery owns re-placement)")
		}
	}
	nodeCfg := machine.SummitNode()
	if opts.NodeConfig != nil {
		nodeCfg = *opts.NodeConfig
	}
	params := machine.DefaultParams()
	if opts.Params != nil {
		params = *opts.Params
	}
	gpusPerNode := nodeCfg.GPUs()
	if gpusPerNode%opts.RanksPerNode != 0 {
		return nil, fmt.Errorf("exchange: %d GPUs/node not divisible by %d ranks/node", gpusPerNode, opts.RanksPerNode)
	}

	if pp := opts.PresetPlacement; pp != nil {
		if len(pp) != opts.Nodes {
			return nil, fmt.Errorf("exchange: PresetPlacement has %d nodes, config has %d", len(pp), opts.Nodes)
		}
		for n, f := range pp {
			if len(f) != gpusPerNode {
				return nil, fmt.Errorf("exchange: PresetPlacement node %d has %d entries, want %d", n, len(f), gpusPerNode)
			}
			seen := make([]bool, len(f))
			for _, g := range f {
				if g < 0 || g >= len(f) || seen[g] {
					return nil, fmt.Errorf("exchange: PresetPlacement node %d is not a permutation: %v", n, f)
				}
				seen[g] = true
			}
		}
	}

	eng := sim.NewEngine()
	eng.SetWorkers(opts.Workers)
	m := machine.New(eng, opts.Nodes, nodeCfg, params)
	tel := opts.Telemetry
	if tel != nil {
		// Every waterfill rebalance reports per-link utilization and flow
		// counts; sampling starts here so the placement microbenchmark's
		// flows (EmpiricalPlacement) are visible too.
		m.Net.Probe = tel
	}
	switch {
	case opts.FairnessHorizon > 0:
		m.Net.MaxHops = opts.FairnessHorizon
	case opts.FairnessHorizon == 0 && opts.Nodes > 32:
		m.Net.MaxHops = 1
	}
	rt := cudart.NewRuntime(m, opts.RealData)
	w := mpi.NewWorld(m, rt, opts.RanksPerNode, opts.CUDAAware)
	w.SendTimeout = opts.SendTimeout
	w.SendRetries = opts.SendRetries
	if opts.Reliable {
		w.Reliable = true
	}
	if tel != nil {
		w.OnRetry = tel.MPIRetry
		w.OnRetryExhausted = tel.MPIRetryExhausted
		w.OnProtocol = tel.MPIProtocol
		w.OnEnvelopeAlloc = func(bytes int64) {
			tel.AttributeAlloc(telemetry.FeatureReliable, bytes)
		}
	}

	var setupSpan *telemetry.Span
	if tel != nil {
		// The enclosing setup span carries the baseline attribution; its
		// children (partition/placement/specialization) stay untagged so
		// setup time is not double-counted in the ledger.
		setupSpan = tel.StartSpanFeature("setup", nil, eng.Now(), telemetry.FeatureBaseline)
	}
	var partSpan *telemetry.Span
	if tel != nil {
		partSpan = tel.StartSpan("setup.partition", setupSpan, eng.Now())
	}
	h, err := part.NewHier(opts.Domain, opts.Nodes, gpusPerNode)
	if err != nil {
		return nil, err
	}
	if partSpan != nil {
		partSpan.End(eng.Now())
	}

	e := &Exchanger{
		Eng:           eng,
		M:             m,
		RT:            rt,
		W:             w,
		Hier:          h,
		Opts:          opts,
		gpusPerRank:   gpusPerNode / opts.RanksPerNode,
		slots:         make(map[slotKey]*sim.Signal),
		groupStates:   make(map[slotKey]*groupState),
		overlapStates: make(map[int]*overlapIterState),
	}
	switch opts.Neighborhood {
	case 0, 26:
		e.dirs = part.Directions26()
	case 6:
		e.dirs = part.Directions6()
	case 18:
		e.dirs = part.Directions18()
	default:
		return nil, fmt.Errorf("exchange: neighborhood %d (want 6, 18, or 26)", opts.Neighborhood)
	}
	if opts.TraceOps || tel != nil {
		rt.OnOp = func(r cudart.OpRecord) {
			if opts.TraceOps {
				e.Trace = append(e.Trace, r)
			}
			if tel != nil {
				tel.RecordOp(r.Kind.String(), r.Name, r.Device, r.Stream, r.Start, r.End, r.Bytes)
			}
		}
	}

	setupStart := time.Now()
	var placeSpan *telemetry.Span
	if tel != nil {
		placeSpan = tel.StartSpan("setup.placement", setupSpan, eng.Now())
	}
	e.place()
	if placeSpan != nil {
		placeSpan.End(eng.Now())
	}
	e.SetupPlacementWall = time.Since(setupStart)

	planStart := time.Now()
	var specSpan *telemetry.Span
	if tel != nil {
		specSpan = tel.StartSpan("setup.specialization", setupSpan, eng.Now())
	}
	e.buildPlans()
	if specSpan != nil {
		var tags []telemetry.Label
		counts := e.MethodCounts()
		for m := Method(0); m < numMethods; m++ {
			if c := counts[m]; c > 0 {
				tags = append(tags, telemetry.L(m.String(), fmt.Sprint(c)))
			}
		}
		specSpan.End(eng.Now(), tags...)
	}
	e.SetupPlanWall = time.Since(planStart)

	// A halo exchange reads a send region radius cells deep; a subdomain
	// thinner than the radius would silently pack stale halo bytes.
	for _, s := range e.Subs {
		sz := s.Dom.Size
		if sz.X < opts.Radius || sz.Y < opts.Radius || sz.Z < opts.Radius {
			return nil, fmt.Errorf("exchange: subdomain %v size %v thinner than radius %d; use fewer partitions or a larger domain",
				s.Global, sz, opts.Radius)
		}
	}

	e.degradeStreak = make([]int, opts.Nodes)
	e.replaceDone = make([]bool, opts.Nodes)
	if opts.VerifyExchange || (opts.Fault != nil && opts.Fault.HasDelivery()) {
		e.verifier = newVerifier(e)
	}
	if opts.Adaptive && (opts.QuarantineTicks > 0 ||
		(opts.Fault != nil && (opts.Fault.HasDelivery() || opts.Fault.HasFlap()))) {
		e.health = newHealthMonitor(e)
	}
	if tel != nil {
		// One "plan" event per transfer plan records the setup-time method
		// selection; the exchange_plans gauges track the live per-method
		// counts from here on (adaptation moves them via logAdapt).
		now := eng.Now()
		for _, p := range e.Plans {
			tel.Event(now, "plan",
				telemetry.F("plan", p.ID),
				telemetry.F("src_rank", p.Src.Rank),
				telemetry.F("dst_rank", p.Dst.Rank),
				telemetry.F("dir", fmt.Sprintf("%d,%d,%d", p.Dir.X, p.Dir.Y, p.Dir.Z)),
				telemetry.F("method", p.Method.String()),
				telemetry.F("bytes", p.Bytes))
		}
		for m, c := range e.MethodCounts() {
			tel.Gauge("exchange_plans", telemetry.L("method", m.String())).Set(float64(c))
		}
		// Subdomain data buffers are the baseline's host-memory footprint
		// (only real-data mode materializes them).
		if opts.RealData {
			for _, s := range e.Subs {
				tel.AttributeAlloc(telemetry.FeatureBaseline, s.Dom.AllocBytes())
			}
		}
		setupSpan.End(now)
	}
	// Faults are installed after setup: EmpiricalPlacement's microbenchmark
	// advances the virtual clock, and scenario times are meant to be
	// measured from the start of the run, not of topology discovery.
	if opts.Fault != nil {
		e.Faults = fault.NewInjector(m, rt, w)
		if tel != nil {
			e.Faults.OnRecord = func(rec fault.Record) {
				tel.FaultApplied(rec.At, rec.Kind, rec.Desc)
			}
		}
		if err := e.Faults.Install(opts.Fault); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// place runs phase 2 on every node and materializes the subdomains.
func (e *Exchanger) place() {
	gpusPerNode := e.M.Nodes[0].Config.GPUs()
	e.Subs = make([]*Sub, e.Opts.Nodes*gpusPerNode)
	// With empirical placement the bandwidth matrix comes from a pairwise
	// transfer microbenchmark run once at startup (nodes are identical, so
	// node 0's measurement serves all).
	var measured *nvml.Topology
	if e.Opts.EmpiricalPlacement {
		measured = nvml.MeasureBandwidth(e.RT, 0, 64<<20)
	}
	for n := 0; n < e.Opts.Nodes; n++ {
		nodeIdx := e.Hier.NodeIndex(n)
		topo := nvml.Discover(e.M.Nodes[n])
		if measured != nil {
			topo = measured
		}
		var asgn *placement.Assignment
		if pp := e.Opts.PresetPlacement; pp != nil {
			// A cached phase-2 result: evaluate its QAP cost (cheap) but
			// skip the permutation search (the expensive, shareable part).
			w := placement.FlowMatrixBoundary(e.Hier, nodeIdx, e.Opts.Radius,
				e.Opts.Quantities, e.Opts.ElemSize, e.Opts.OpenBoundary)
			d := placement.DistanceMatrix(topo.Bandwidth)
			asgn = placement.NewAssignment(pp[n], placement.Cost(w, d, pp[n]))
		} else {
			asgn = placement.PlaceBoundary(e.Hier, nodeIdx, topo.Bandwidth,
				e.Opts.Radius, e.Opts.Quantities, e.Opts.ElemSize, e.Opts.NodeAware, e.Opts.OpenBoundary)
		}
		e.Assignments = append(e.Assignments, asgn)
		for s := 0; s < gpusPerNode; s++ {
			gpuIdx := e.Hier.GPUIndex(s)
			_, size := e.Hier.Subdomain(nodeIdx, gpuIdx)
			local := asgn.SubToGPU[s]
			sub := &Sub{
				GPURankIdx: s,
				NodeIdx:    nodeIdx,
				GPUIdx:     gpuIdx,
				Global:     e.Hier.GlobalIndex(nodeIdx, gpuIdx),
				NodeID:     n,
				LocalGPU:   local,
				Rank:       n*e.Opts.RanksPerNode + local/e.gpusPerRank,
				Dev:        e.RT.DeviceAt(n, local),
				Dom:        halo.NewDomain(size, e.Opts.Radius, e.Opts.Quantities, e.Opts.ElemSize, e.Opts.RealData),
			}
			sub.kernelStream = sub.Dev.NewStream(fmt.Sprintf("sub%d.kernel", n*gpusPerNode+s))
			e.Subs[n*gpusPerNode+s] = sub
		}
	}
}

// subAt returns the subdomain at a global grid index.
func (e *Exchanger) subAt(global part.Dim3) *Sub {
	nodeIdx, gpuIdx := e.Hier.Split(global)
	n := e.Hier.NodeRank(nodeIdx)
	gpusPerNode := e.M.Nodes[0].Config.GPUs()
	return e.Subs[n*gpusPerNode+e.Hier.GPURank(gpuIdx)]
}

// pickMethod applies the paper's first-applicable selection (§III-C).
func (e *Exchanger) pickMethod(src, dst *Sub) Method {
	caps := e.Opts.Caps
	switch {
	case src == dst && caps.Kernel:
		return MethodKernel
	case src.Rank == dst.Rank && caps.Peer:
		return MethodPeer
	case src.NodeID == dst.NodeID && src.Rank != dst.Rank && caps.Colocated:
		return MethodColocated
	case e.Opts.CUDAAware:
		return MethodCudaAware
	default:
		return MethodStaged
	}
}

// buildPlans creates one plan per (subdomain, direction), allocating staging
// buffers and streams, enabling peer access, and performing the one-time
// cudaIpc handle exchange for COLOCATEDMEMCPY (all during setup, which the
// paper excludes from exchange timing).
func (e *Exchanger) buildPlans() {
	for si, src := range e.Subs {
		for di, dir := range e.dirs {
			var nb part.Dim3
			if e.Opts.OpenBoundary {
				var ok bool
				nb, ok = e.Hier.NeighborOpen(src.Global, dir)
				if !ok {
					continue // domain boundary: nothing to exchange
				}
			} else {
				nb = e.Hier.Neighbor(src.Global, dir)
			}
			dst := e.subAt(nb)
			p := &Plan{
				ID:     len(e.Plans),
				Src:    src,
				Dst:    dst,
				Dir:    dir,
				Method: e.pickMethod(src, dst),
				Bytes:  src.Dom.HaloBytes(dir),
				Tag:    si*64 + di,
			}
			e.preparePlan(p)
			e.Plans = append(e.Plans, p)
		}
	}
	if e.Opts.AggregateRemote {
		e.buildGroups()
	}
}

// buildGroups collects inter-node STAGED plans into one aggregated message
// per rank pair (§VI / ref [3]: fewer, larger MPI messages) and allocates
// the shared host buffers.
func (e *Exchanger) buildGroups() {
	byPair := make(map[[2]int]*msgGroup)
	var order [][2]int
	for _, p := range e.Plans {
		if p.Method != MethodStaged || p.Src.NodeID == p.Dst.NodeID {
			continue
		}
		key := [2]int{p.Src.Rank, p.Dst.Rank}
		g, ok := byPair[key]
		if !ok {
			g = &msgGroup{
				id:      len(order),
				srcRank: p.Src.Rank,
				dstRank: p.Dst.Rank,
				tag:     len(e.Subs)*64 + len(order),
			}
			byPair[key] = g
			order = append(order, key)
			e.groups = append(e.groups, g)
		}
		p.group = g
		p.aggOffset = g.bytes
		g.bytes += p.Bytes
		g.plans = append(g.plans, p)
		// The per-plan host staging buffers are replaced by the group's.
		p.hostSend, p.hostRecv = nil, nil
	}
	for _, g := range e.groups {
		srcRank := e.W.Rank(g.srcRank)
		dstRank := e.W.Rank(g.dstRank)
		g.hostSend = e.RT.MallocHost(srcRank.Node, srcRank.Socket, g.bytes)
		g.hostRecv = e.RT.MallocHost(dstRank.Node, dstRank.Socket, g.bytes)
	}
}

// groupState returns the per-(group, iteration) progress record, creating it
// on first touch by either side.
func (e *Exchanger) groupStateOf(g *msgGroup, iter int) *groupState {
	k := slotKey{g.id, iter}
	if gs, ok := e.groupStates[k]; ok {
		return gs
	}
	gs := &groupState{
		remaining: len(g.plans),
		sendDone:  sim.NewSignal(e.Eng, "exchange.group.send"),
		recvDone:  sim.NewSignal(e.Eng, "exchange.group.recv"),
	}
	e.groupStates[k] = gs
	return gs
}

func (e *Exchanger) preparePlan(p *Plan) {
	name := fmt.Sprintf("p%d", p.ID)
	switch p.Method {
	case MethodKernel:
		// No buffers or extra streams: one kernel on the sub's stream.
	case MethodPeer, MethodColocated:
		p.devSend = p.Src.Dev.Malloc(p.Bytes)
		p.devRecv = p.Dst.Dev.Malloc(p.Bytes)
		p.sendStream = p.Src.Dev.NewStream(name + ".send")
		p.recvStream = p.Dst.Dev.NewStream(name + ".recv")
		if p.Src.Dev != p.Dst.Dev {
			// Peer access both directions (copy + completion visibility).
			_ = p.Src.Dev.EnablePeerAccess(p.Dst.Dev)
			_ = p.Dst.Dev.EnablePeerAccess(p.Src.Dev)
		}
		// For COLOCATEDMEMCPY the devRecv pointer crosses the process
		// boundary via cudaIpcGetMemHandle/OpenMemHandle once, here in
		// setup; exchanges then never touch MPI.
	case MethodCudaAware:
		p.devSend = p.Src.Dev.Malloc(p.Bytes)
		p.devRecv = p.Dst.Dev.Malloc(p.Bytes)
		p.sendStream = p.Src.Dev.NewStream(name + ".send")
		p.recvStream = p.Dst.Dev.NewStream(name + ".recv")
	case MethodStaged:
		p.devSend = p.Src.Dev.Malloc(p.Bytes)
		p.devRecv = p.Dst.Dev.Malloc(p.Bytes)
		srcRank := e.W.Rank(p.Src.Rank)
		dstRank := e.W.Rank(p.Dst.Rank)
		p.hostSend = e.RT.MallocHost(p.Src.NodeID, srcRank.Socket, p.Bytes)
		p.hostRecv = e.RT.MallocHost(p.Dst.NodeID, dstRank.Socket, p.Bytes)
		p.sendStream = p.Src.Dev.NewStream(name + ".send")
		p.recvStream = p.Dst.Dev.NewStream(name + ".recv")
	}
}

// slot returns the per-(plan, iteration) rendezvous signal used by
// COLOCATEDMEMCPY: the sender fires it when its peer copy lands; the
// receiver's unpack waits on it (the shared cudaIpc event).
func (e *Exchanger) slot(plan, iter int) *sim.Signal {
	k := slotKey{plan, iter}
	if s, ok := e.slots[k]; ok {
		return s
	}
	s := sim.NewSignal(e.Eng, "exchange.slot")
	e.slots[k] = s
	return s
}

func neg(d part.Dim3) part.Dim3 { return part.Dim3{X: -d.X, Y: -d.Y, Z: -d.Z} }

// PlacementImprovement returns the relative QAP-cost reduction of the chosen
// placement versus the trivial linearized one for the given node: 0 when
// trivial is already optimal (or placement is disabled).
func (e *Exchanger) PlacementImprovement(node int) float64 {
	nodeIdx := e.Hier.NodeIndex(node)
	topo := nvml.Discover(e.M.Nodes[node])
	w := placement.FlowMatrixBoundary(e.Hier, nodeIdx, e.Opts.Radius, e.Opts.Quantities, e.Opts.ElemSize, e.Opts.OpenBoundary)
	d := placement.DistanceMatrix(topo.Bandwidth)
	return placement.Improvement(w, d, e.Assignments[node])
}
