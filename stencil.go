// Package stencil is a node-aware 3D stencil halo-exchange library for
// heterogeneous (multi-socket, multi-GPU) clusters, reproducing "Node-Aware
// Stencil Communication for Heterogeneous Supercomputers" (IPPS 2020) on a
// simulated hardware substrate.
//
// A DistributedDomain runs the paper's three-phase setup automatically:
//
//  1. Partitioning — hierarchical prime-factor recursive bisection,
//     first across nodes, then across the GPUs of each node, minimizing
//     surface-to-volume ratio at the slow links first.
//  2. Placement — per-node quadratic-assignment of subdomains to GPUs,
//     matching exchange volume to discovered link bandwidth.
//  3. Specialization — per-neighbor selection of the fastest applicable
//     transfer method (KERNEL, PEERMEMCPY, COLOCATEDMEMCPY, CUDAAWAREMPI,
//     STAGED).
//
// Because no CUDA devices or MPI launchers exist in this environment, the
// library executes on a deterministic discrete-event simulation of a
// Summit-like cluster (see internal/machine). Exchanges move real bytes when
// Config.RealData is set, so numerical results are bit-exact verifiable,
// and every operation advances a virtual clock calibrated to the paper's
// platform, so the performance characteristics are reproducible.
package stencil

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/nodeaware/stencil/internal/exchange"
	"github.com/nodeaware/stencil/internal/fault"
	"github.com/nodeaware/stencil/internal/machine"
	"github.com/nodeaware/stencil/internal/part"
	"github.com/nodeaware/stencil/internal/sim"
	"github.com/nodeaware/stencil/internal/telemetry"
)

// Dim3 is a 3D extent or index.
type Dim3 = part.Dim3

// Capabilities selects which transfer methods the library may use, mirroring
// the paper's "+remote/+colo/+peer/+kernel" ladder. The zero value enables
// only remote (MPI) transfers.
type Capabilities = exchange.Capabilities

// Capability ladder constructors.
var (
	CapsRemote = exchange.CapsRemote
	CapsColo   = exchange.CapsColo
	CapsPeer   = exchange.CapsPeer
	CapsAll    = exchange.CapsAll
)

// Method identifies a transfer method in statistics.
type Method = exchange.Method

// Exported method constants.
const (
	MethodKernel    = exchange.MethodKernel
	MethodPeer      = exchange.MethodPeer
	MethodColocated = exchange.MethodColocated
	MethodCudaAware = exchange.MethodCudaAware
	MethodStaged    = exchange.MethodStaged
)

// Stats reports measured exchange times and the method breakdown.
type Stats = exchange.Stats

// FaultScenario is a scripted, deterministic fault schedule: link failures
// and degradations, NIC flaps, GPU stragglers, rank pauses, each at a fixed
// virtual time. Build one with the fluent helpers (KillNVLink, FlapNIC,
// DegradeNIC, StraggleGPU, PauseRank, ...) and pass it as Config.Fault.
type FaultScenario = fault.Scenario

// FaultEvent, FaultTarget, and FaultRecord expose the scenario building
// blocks and the applied-fault timeline.
type (
	FaultEvent  = fault.Event
	FaultTarget = fault.Target
	FaultRecord = fault.Record
)

// AdaptRecord is one adaptation decision (a method switch or re-placement).
type AdaptRecord = exchange.AdaptRecord

// RecoveryRecord is one checkpoint/rollback/migration action of the
// recovery layer; see Config.CheckpointEvery and RecoveryLog.
type RecoveryRecord = exchange.RecoveryRecord

// Telemetry is a unified virtual-time observability recorder: counters,
// gauges, histograms, per-link utilization tracks, hierarchical phase spans,
// and a structured event log, all keyed by simulated time and exportable as
// Prometheus text, a JSON snapshot, or NDJSON events (see internal/telemetry).
// Create one with NewTelemetry, attach it via Config.Telemetry, and read it
// after the run. Attaching telemetry never changes simulated times.
type Telemetry = telemetry.Recorder

// NewTelemetry returns an empty recorder ready to attach to a Config.
func NewTelemetry() *Telemetry { return telemetry.New() }

// PlanInfo is an inspection snapshot of one transfer plan.
type PlanInfo = exchange.PlanInfo

// Config describes a distributed stencil job.
type Config struct {
	// Nodes and RanksPerNode shape the job; every node has six GPUs in the
	// default (Summit) node configuration. RanksPerNode must divide the
	// GPUs per node.
	Nodes        int
	RanksPerNode int

	// Domain is the global grid extent; Radius the stencil radius;
	// Quantities the number of grid quantities (e.g. 4 for a fluid code).
	Domain     Dim3
	Radius     int
	Quantities int

	// ElemSize is the bytes per value; 0 defaults to 4 (single precision).
	ElemSize int

	// Capabilities gates the transfer methods; use CapsAll() for the fully
	// specialized exchange.
	Capabilities Capabilities

	// CUDAAware routes remote messages through CUDA-aware MPI instead of
	// staging through the host.
	CUDAAware bool

	// TrivialPlacement disables the node-aware QAP placement (the Fig 11
	// baseline). Default (false) is node-aware.
	TrivialPlacement bool

	// RealData allocates backing memory and moves real bytes; required for
	// numeric verification, affordable only for small domains.
	RealData bool

	// FaceOnly exchanges only the six face neighbors (Fig 1(a) stencils):
	// shorthand for Neighborhood 6, and an error with any other explicit
	// Neighborhood.
	FaceOnly bool

	// Neighborhood selects the exchanged direction set by count: 0 or 26 for
	// the full neighborhood, 6 for faces only (Fig 1(a)), 18 for faces plus
	// planar diagonals (Fig 1(b)).
	Neighborhood int

	// OpenBoundary disables periodic wrap-around: subdomains at the domain
	// edge have no neighbor there and their outer halos are left untouched
	// (suitable for Dirichlet/Neumann conditions applied by the
	// application).
	OpenBoundary bool

	// AggregateRemote combines each rank pair's inter-node STAGED messages
	// into a single MPI message per exchange (fewer, larger messages).
	AggregateRemote bool

	// NoOverlap serializes all transfers (ablation of the §III-D overlap
	// machinery).
	NoOverlap bool

	// Overlap enables compute/communication overlap via persistent exchange
	// plans: interior compute runs while halos are in flight, and each
	// subdomain's border update is gated per-quadrant on the verified
	// arrival of exactly the halos it reads, replacing the global
	// verification barrier. Final domain bytes are identical to a
	// non-overlapped run. Incompatible with NoOverlap, AggregateRemote,
	// AdaptPlacement, and CUDAAware.
	Overlap bool

	// Preempt, when set, is polled between iterations; when it returns true
	// the run stops early at the next iteration boundary (see Preempted).
	// Used for cooperative job cancellation; not serialized by jobspec.
	Preempt func() bool

	// EmpiricalPlacement drives the QAP with a congestion-aware bandwidth
	// measurement pass instead of the vendor topology query.
	EmpiricalPlacement bool

	// FairnessHorizon bounds bandwidth-rebalance propagation in the flow
	// network: 0 = automatic (exact up to 32 nodes), negative = force
	// exact, positive = explicit hop bound.
	FairnessHorizon int

	// NodeConfig and Params override the simulated hardware; nil uses the
	// Summit node and the calibrated default cost model.
	NodeConfig *machine.NodeConfig
	Params     *machine.Params

	// PresetPlacement injects a cached phase-2 placement (one subdomain→GPU
	// permutation per node, as returned by Assignment(n)), skipping the QAP
	// solve. The solver is deterministic, so a preset recorded from an
	// identical configuration reproduces that run bit-exactly; stencilserve
	// uses this to share setup work across jobs that differ only in
	// scenario or run length. Nil computes placement normally.
	PresetPlacement [][]int

	// TraceOps records a timeline of every simulated CUDA operation.
	TraceOps bool

	// Fault installs a deterministic fault/degradation scenario on the
	// virtual clock; see FaultScenario. Nil disables injection.
	Fault *FaultScenario

	// Adaptive enables degradation-aware re-specialization: a health
	// monitor observes link state between iterations and re-runs phase-3
	// method selection for plans whose path failed or degraded, promoting
	// them back on recovery.
	Adaptive bool

	// AdaptThreshold is the link-health fraction below which a link counts
	// as degraded (0 defaults to 0.5); AdaptCheckEvery runs the monitor
	// every N iterations (0 defaults to 1).
	AdaptThreshold  float64
	AdaptCheckEvery int

	// AdaptPlacement additionally re-runs phase-2 placement against the
	// degraded bandwidth matrix when a node's degradation persists for
	// AdaptPersistTicks monitor ticks (0 defaults to 3), migrating
	// subdomains whose GPU changes. Requires Adaptive; incompatible with
	// AggregateRemote.
	AdaptPlacement    bool
	AdaptPersistTicks int

	// CheckpointEvery > 0 snapshots every subdomain to host memory every K
	// iterations (and once before the first) as real D2H traffic, and
	// enables recovery from permanent GPU/rank loss (Fault scenarios with
	// KillGPU/KillRank): on detection, every surviving rank rolls back to
	// the last checkpoint, lost subdomains migrate to surviving GPUs, and
	// the run replays — final results are byte-identical to a fault-free
	// run. Required when the scenario contains fatal events. 0 disables.
	CheckpointEvery int

	// SendTimeout (seconds of virtual time) enables MPI-level retry: a
	// wire transfer still in flight after the timeout is aborted and
	// re-sent, up to SendRetries attempts (0 defaults to 8). 0 disables.
	SendTimeout float64
	SendRetries int

	// Reliable forces the MPI reliable-delivery envelope for inter-node
	// messages (per-message checksums, sequence numbers, receiver dedup,
	// ACK/NACK with capped exponential-backoff retransmission) even on a
	// clean network. A Fault scenario containing delivery faults
	// (DropMsgs/CorruptMsgs/DupMsgs/LossyNIC) arms it automatically.
	Reliable bool

	// VerifyExchange enables end-to-end halo verification: per-quadrant
	// checksums compared across the inter-node wire after each exchange,
	// with damaged quadrants selectively re-exchanged. Auto-enabled when the
	// Fault scenario schedules delivery faults; meaningful with RealData.
	VerifyExchange bool

	// QuarantineTicks is the clean-window hysteresis of link quarantine:
	// a link whose health score (EWMA of fault and flap indicators) crosses
	// the enter threshold is excluded from method selection until this many
	// consecutive clean monitor ticks pass (0 defaults to 5), so a flapping
	// link cannot thrash plans. Active with Adaptive when the scenario
	// contains delivery or flap faults, or when set explicitly.
	QuarantineTicks int

	// Telemetry, when set, records metrics, link-utilization samples, phase
	// spans, and a structured event log for the whole job; see NewTelemetry.
	Telemetry *Telemetry

	// Workers runs the engine's deferred payloads (real byte copies) on N
	// goroutines; 0 keeps the simulation sequential. Results — including
	// telemetry output — are bit-identical either way.
	Workers int
}

// DistributedDomain is a stencil domain decomposed across a simulated
// multi-GPU cluster, ready to exchange halos.
type DistributedDomain struct {
	ex   *exchange.Exchanger
	cfg  Config
	subs []*Subdomain
}

// New partitions, places, and specializes the domain per the configuration.
func New(cfg Config) (*DistributedDomain, error) {
	if cfg.ElemSize == 0 {
		cfg.ElemSize = 4
	}
	nbhd, err := cfg.neighborhood()
	if err != nil {
		return nil, err
	}
	ex, err := exchange.New(exchange.Options{
		Nodes:              cfg.Nodes,
		RanksPerNode:       cfg.RanksPerNode,
		Domain:             cfg.Domain,
		Radius:             cfg.Radius,
		Quantities:         cfg.Quantities,
		ElemSize:           cfg.ElemSize,
		Caps:               cfg.Capabilities,
		CUDAAware:          cfg.CUDAAware,
		NodeAware:          !cfg.TrivialPlacement,
		RealData:           cfg.RealData,
		Neighborhood:       nbhd,
		OpenBoundary:       cfg.OpenBoundary,
		AggregateRemote:    cfg.AggregateRemote,
		NoOverlap:          cfg.NoOverlap,
		Overlap:            cfg.Overlap,
		Preempt:            cfg.Preempt,
		EmpiricalPlacement: cfg.EmpiricalPlacement,
		FairnessHorizon:    cfg.FairnessHorizon,
		NodeConfig:         cfg.NodeConfig,
		Params:             cfg.Params,
		PresetPlacement:    cfg.PresetPlacement,
		TraceOps:           cfg.TraceOps,
		Fault:              cfg.Fault,
		Adaptive:           cfg.Adaptive,
		AdaptThreshold:     cfg.AdaptThreshold,
		AdaptCheckEvery:    cfg.AdaptCheckEvery,
		AdaptPlacement:     cfg.AdaptPlacement,
		AdaptPersistTicks:  cfg.AdaptPersistTicks,
		CheckpointEvery:    cfg.CheckpointEvery,
		SendTimeout:        sim.Time(cfg.SendTimeout),
		SendRetries:        cfg.SendRetries,
		Reliable:           cfg.Reliable,
		VerifyExchange:     cfg.VerifyExchange,
		QuarantineTicks:    cfg.QuarantineTicks,
		Telemetry:          cfg.Telemetry,
		Workers:            cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	dd := &DistributedDomain{ex: ex, cfg: cfg}
	for _, s := range ex.Subs {
		origin, size := ex.Hier.Subdomain(s.NodeIdx, s.GPUIdx)
		dd.subs = append(dd.subs, &Subdomain{sub: s, Origin: origin, Size: size, dd: dd})
	}
	return dd, nil
}

// Exchange performs the given number of halo exchanges and returns the
// measured statistics (max-across-ranks time per iteration, as the paper
// reports).
func (dd *DistributedDomain) Exchange(iterations int) *Stats {
	return dd.ex.Run(iterations)
}

// Subdomains returns the per-GPU subdomains in deterministic order.
func (dd *DistributedDomain) Subdomains() []*Subdomain { return dd.subs }

// NumSubdomains returns the total subdomain (= GPU) count.
func (dd *DistributedDomain) NumSubdomains() int { return len(dd.subs) }

// GridDims returns the global subdomain grid.
func (dd *DistributedDomain) GridDims() Dim3 { return dd.ex.Hier.GlobalDims() }

// PlacementImprovement returns the relative reduction in the QAP objective
// achieved by the chosen placement versus the trivial linearized baseline on
// the given node (e.g. 0.19 for a 19% cost reduction).
func (dd *DistributedDomain) PlacementImprovement(node int) float64 {
	return dd.ex.PlacementImprovement(node)
}

// Assignment returns the subdomain→GPU mapping chosen for the given node.
func (dd *DistributedDomain) Assignment(node int) []int {
	out := make([]int, len(dd.ex.Assignments[node].SubToGPU))
	copy(out, dd.ex.Assignments[node].SubToGPU)
	return out
}

// MethodBreakdown returns how many of the per-direction transfer plans use
// each method. Called before an Exchange it reflects the setup-time
// selection; called after, any adaptive re-specialization.
func (dd *DistributedDomain) MethodBreakdown() map[Method]int {
	return dd.ex.MethodCounts()
}

// PlanInfos snapshots every transfer plan: endpoints, method, bytes, and
// traffic class. The method column reflects any adaptation so far.
func (dd *DistributedDomain) PlanInfos() []PlanInfo { return dd.ex.PlanInfos() }

// AdaptLog returns the adaptation timeline recorded so far (method switches
// and re-placements); empty unless Config.Adaptive.
func (dd *DistributedDomain) AdaptLog() []AdaptRecord { return dd.ex.AdaptLog }

// RecoveryLog returns the recovery timeline (checkpoints, detected
// failures, rollbacks, migrations, resumes); empty unless
// Config.CheckpointEvery > 0.
func (dd *DistributedDomain) RecoveryLog() []RecoveryRecord { return dd.ex.RecoveryLog }

// FaultLog returns the applied-fault timeline; empty unless Config.Fault.
func (dd *DistributedDomain) FaultLog() []FaultRecord {
	if dd.ex.Faults == nil {
		return nil
	}
	return dd.ex.Faults.Log()
}

// Trace returns the recorded operation timeline (Config.TraceOps).
func (dd *DistributedDomain) Trace() []TraceOp {
	var out []TraceOp
	for _, r := range dd.ex.Trace {
		out = append(out, TraceOp{
			Name: r.Name, Kind: r.Kind.String(), Device: r.Device,
			Stream: r.Stream, Start: r.Start, End: r.End, Bytes: r.Bytes,
		})
	}
	return out
}

// TraceOp is one simulated GPU operation in a recorded timeline.
type TraceOp struct {
	Name   string
	Kind   string
	Device int
	Stream string
	Start  float64
	End    float64
	Bytes  int64
}

// Subdomain exposes one GPU's block of the domain.
type Subdomain struct {
	// Origin and Size locate the subdomain's interior in global grid
	// coordinates.
	Origin, Size Dim3
	sub          *exchange.Sub
	dd           *DistributedDomain
}

// GlobalIndex returns the subdomain's index in the global subdomain grid.
func (s *Subdomain) GlobalIndex() Dim3 { return s.sub.Global }

// GPU returns the (node, local GPU) pair the subdomain was placed on.
func (s *Subdomain) GPU() (node, gpu int) { return s.sub.NodeID, s.sub.LocalGPU }

// Rank returns the owning MPI rank.
func (s *Subdomain) Rank() int { return s.sub.Rank }

// Get reads quantity q at local coordinate (x, y, z); halo cells use
// negative or >= Size indices. Requires Config.RealData.
func (s *Subdomain) Get(q, x, y, z int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(s.sub.Dom.At(q, x, y, z)))
}

// Set writes quantity q at local coordinate (x, y, z).
func (s *Subdomain) Set(q, x, y, z int, v float32) {
	binary.LittleEndian.PutUint32(s.sub.Dom.At(q, x, y, z), math.Float32bits(v))
}

// ComputeFunc updates one subdomain's interior, reading halos as needed.
type ComputeFunc func(s *Subdomain)

// Step runs `steps` iterations of exchange-then-compute: each step performs
// a full halo exchange, then runs compute as a simulated kernel on every
// GPU (overlappable across GPUs, serialized per GPU). It returns the
// exchange statistics. Compute cost is modeled as a memory-bound sweep of
// the subdomain at the device's effective pack bandwidth.
func (dd *DistributedDomain) Step(steps int, compute ComputeFunc) *Stats {
	if compute == nil {
		return dd.Exchange(steps)
	}
	return dd.ex.RunWithCompute(steps, func(s *exchange.Sub) {
		for _, ps := range dd.subs {
			if ps.sub == s {
				compute(ps)
				return
			}
		}
		panic("stencil: compute on unknown subdomain")
	})
}

// Validate checks the configuration without building the job.
func (cfg Config) Validate() error {
	if cfg.ElemSize == 0 {
		cfg.ElemSize = 4
	}
	if cfg.Nodes < 1 || cfg.RanksPerNode < 1 {
		return fmt.Errorf("stencil: need at least one node and rank")
	}
	if cfg.Radius < 1 {
		return fmt.Errorf("stencil: radius must be >= 1")
	}
	if cfg.Quantities < 1 {
		return fmt.Errorf("stencil: need at least one quantity")
	}
	_, err := cfg.neighborhood()
	return err
}

// neighborhood folds FaceOnly into the Neighborhood count with jobspec's
// rule: FaceOnly means 6 and contradicts any other explicit count.
func (cfg Config) neighborhood() (int, error) {
	if !cfg.FaceOnly {
		return cfg.Neighborhood, nil
	}
	if cfg.Neighborhood != 0 && cfg.Neighborhood != 6 {
		return 0, fmt.Errorf("stencil: FaceOnly contradicts Neighborhood %d", cfg.Neighborhood)
	}
	return 6, nil
}

// VirtualTime returns the current simulated clock of the underlying engine,
// useful when composing multiple measured phases.
func (dd *DistributedDomain) VirtualTime() sim.Time { return dd.ex.Eng.Now() }

// Preempted reports whether a run was stopped early by Config.Preempt.
func (dd *DistributedDomain) Preempted() bool { return dd.ex.Preempted() }
