// Package fault is a deterministic fault/degradation injection subsystem for
// the simulated cluster, driven by the virtual clock.
//
// A Scenario is a scripted list of events — link bandwidth degradation by a
// factor, full link failure with optional recovery, NIC flaps, GPU
// stragglers, rank pauses — that an Injector schedules on the simulation
// engine. When an event fires it mutates the live machine state: link
// capacities change and the flow network re-waterfills every in-flight
// transfer crossing the affected component, devices slow down, progress
// engines stall. Identical scenarios on identical configurations therefore
// yield identical virtual-time traces (the engine's FIFO tie-break makes the
// whole simulation deterministic).
//
// The adaptation layer in internal/exchange observes the resulting link
// health and re-runs the paper's phase-3 specialization (and optionally
// phase-2 placement) against the degraded capability/bandwidth matrix.
package fault

import (
	"fmt"
	"sort"

	"github.com/nodeaware/stencil/internal/cudart"
	"github.com/nodeaware/stencil/internal/flownet"
	"github.com/nodeaware/stencil/internal/machine"
	"github.com/nodeaware/stencil/internal/mpi"
	"github.com/nodeaware/stencil/internal/sim"
)

// Kind classifies a fault event.
type Kind int

const (
	// LinkDegrade multiplies the target links' capacity by Factor (of the
	// healthy base; 1 restores).
	LinkDegrade Kind = iota
	// LinkFail marks the target links down; in-flight flows crawl at a
	// residual trickle until LinkRecover (or a Duration-scheduled recovery).
	LinkFail
	// LinkRecover clears a failure and restores healthy capacity.
	LinkRecover
	// NICFlap fails both directions of the node's NIC and automatically
	// recovers them after Duration.
	NICFlap
	// GPUStraggle sets the target GPU's kernel slow factor to Factor
	// (launch + pack/unpack/compute inflate together; 1 recovers).
	GPUStraggle
	// RankPause occupies the target rank's MPI progress engine for Duration.
	RankPause
	// GPUFail permanently kills device A of the target node. Fail-stop: the
	// device's in-flight virtual-time work completes (real clusters learn of
	// death via timeouts, not instantly), but any new allocation, stream, or
	// peer enablement on it panics. Its links are NOT failed — residual
	// trickle flows would distort the clock; the loss is discovered by the
	// exchange recovery layer at its next consistency point.
	GPUFail
	// RankFail permanently kills global MPI rank A and every device it
	// drives. The exchange recovery layer evicts the rank from collectives
	// and re-places its subdomains on survivors.
	RankFail
	// MsgDrop sets the per-message drop probability of the target links to
	// Factor (0 clears). Sampled by the MPI reliable-delivery layer at flow
	// completion: a dropped message really withholds its payload and the
	// sender must retransmit.
	MsgDrop
	// MsgCorrupt sets the per-message corruption probability of the target
	// links to Factor (0 clears). A corrupted delivery flips real payload
	// bytes in the receive buffer; the checksum mismatch triggers a NACK.
	MsgCorrupt
	// MsgDup sets the per-message duplication probability of the target
	// links to Factor (0 clears). A duplicated delivery arrives twice; the
	// receiver deduplicates by sequence number.
	MsgDup
	// LinkFlap periodically fails and recovers the target links: each cycle
	// is Duration long with the links down for the first Factor (duty, in
	// (0,1)) of it, repeated Repeat times (default 1). Unlike NICFlap it
	// models a persistently unstable link rather than a single outage.
	LinkFlap
	numKinds
)

func (k Kind) String() string {
	switch k {
	case LinkDegrade:
		return "link-degrade"
	case LinkFail:
		return "link-fail"
	case LinkRecover:
		return "link-recover"
	case NICFlap:
		return "nic-flap"
	case GPUStraggle:
		return "gpu-straggle"
	case RankPause:
		return "rank-pause"
	case GPUFail:
		return "gpu-fail"
	case RankFail:
		return "rank-fail"
	case MsgDrop:
		return "msg-drop"
	case MsgCorrupt:
		return "msg-corrupt"
	case MsgDup:
		return "msg-dup"
	case LinkFlap:
		return "link-flap"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// TargetKind selects which machine facility an event hits.
type TargetKind int

const (
	// TargetNVLink is the direct GPU-GPU NVLink between local GPUs A and B
	// (both directions).
	TargetNVLink TargetKind = iota
	// TargetXBus is the socket-to-socket SMP bus between sockets A and B
	// (both directions).
	TargetXBus
	// TargetNIC is the node's injection link pair.
	TargetNIC
	// TargetGPULink is GPU A's links to its socket complex (both
	// directions).
	TargetGPULink
	// TargetHostMem is socket A's host memory engine.
	TargetHostMem
	// TargetGPU is device A itself (for GPUStraggle).
	TargetGPU
	// TargetRank is global MPI rank A (for RankPause; Node is ignored).
	TargetRank
)

func (tk TargetKind) String() string {
	switch tk {
	case TargetNVLink:
		return "nvlink"
	case TargetXBus:
		return "xbus"
	case TargetNIC:
		return "nic"
	case TargetGPULink:
		return "gpulink"
	case TargetHostMem:
		return "hostmem"
	case TargetGPU:
		return "gpu"
	case TargetRank:
		return "rank"
	}
	return fmt.Sprintf("TargetKind(%d)", int(tk))
}

// Target names one machine facility.
type Target struct {
	Node int        `json:"node,omitempty"`
	Kind TargetKind `json:"kind"`
	A    int        `json:"a,omitempty"` // GPU pair, socket pair, GPU, or rank depending on Kind
	B    int        `json:"b,omitempty"`
}

func (t Target) String() string {
	switch t.Kind {
	case TargetNVLink, TargetXBus:
		return fmt.Sprintf("n%d.%s.%d-%d", t.Node, t.Kind, t.A, t.B)
	case TargetNIC:
		return fmt.Sprintf("n%d.nic", t.Node)
	case TargetRank:
		return fmt.Sprintf("rank%d", t.A)
	default:
		return fmt.Sprintf("n%d.%s.%d", t.Node, t.Kind, t.A)
	}
}

// Event is one scheduled fault. At is measured from the moment the scenario
// is installed (normally virtual time zero, but installation may follow
// setup work that already advanced the clock, e.g. a placement
// microbenchmark).
type Event struct {
	At       sim.Time `json:"at"`
	Kind     Kind     `json:"kind"`
	Target   Target   `json:"target"`
	Factor   float64  `json:"factor,omitempty"`   // LinkDegrade: capacity multiplier; GPUStraggle: slowdown; Msg*: probability; LinkFlap: duty
	Duration sim.Time `json:"duration,omitempty"` // NICFlap outage length; RankPause length; LinkFail>0 auto-recovers; LinkFlap: cycle period
	Repeat   int      `json:"repeat,omitempty"`   // LinkFlap: number of down/up cycles (0 means 1)
}

// cycles returns the LinkFlap cycle count with the zero-value default.
func (e Event) cycles() int {
	if e.Repeat < 1 {
		return 1
	}
	return e.Repeat
}

func (e Event) String() string {
	s := fmt.Sprintf("t=%-9.4gs %-12s %s", e.At, e.Kind, e.Target)
	switch e.Kind {
	case MsgDrop, MsgCorrupt, MsgDup:
		return s + fmt.Sprintf(" p=%g", e.Factor)
	case LinkFlap:
		return s + fmt.Sprintf(" period=%gs duty=%g cycles=%d", e.Duration, e.Factor, e.cycles())
	}
	if e.Factor != 0 && (e.Kind == LinkDegrade || e.Kind == GPUStraggle) {
		s += fmt.Sprintf(" factor=%g", e.Factor)
	}
	if e.Duration > 0 {
		s += fmt.Sprintf(" duration=%gs", e.Duration)
	}
	return s
}

// Scenario is a named, scripted fault schedule. Seed keys the deterministic
// hash-based PRNG behind delivery faults (MsgDrop/MsgCorrupt/MsgDup): the
// same seed, topology, and traffic yield bit-identical fault decisions
// regardless of event-execution interleaving, because each decision hashes
// (seed, link, message identity) instead of consuming a shared stream.
type Scenario struct {
	Name   string  `json:"name,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`
	Events []Event `json:"events"`
}

// Add appends an event and returns the scenario for chaining.
func (s *Scenario) Add(e Event) *Scenario {
	s.Events = append(s.Events, e)
	return s
}

// KillNVLink schedules a permanent failure of the NVLink between local GPUs
// a and b of node at time t; if recoverAfter > 0 the link heals that much
// later.
func (s *Scenario) KillNVLink(t sim.Time, node, a, b int, recoverAfter sim.Time) *Scenario {
	return s.Add(Event{At: t, Kind: LinkFail, Duration: recoverAfter,
		Target: Target{Node: node, Kind: TargetNVLink, A: a, B: b}})
}

// DegradeNIC degrades both directions of a node's NIC to factor × healthy.
func (s *Scenario) DegradeNIC(t sim.Time, node int, factor float64) *Scenario {
	return s.Add(Event{At: t, Kind: LinkDegrade, Factor: factor,
		Target: Target{Node: node, Kind: TargetNIC}})
}

// FlapNIC fails a node's NIC at t and recovers it after outage.
func (s *Scenario) FlapNIC(t sim.Time, node int, outage sim.Time) *Scenario {
	return s.Add(Event{At: t, Kind: NICFlap, Duration: outage,
		Target: Target{Node: node, Kind: TargetNIC}})
}

// DegradeXBus degrades the SMP bus between two sockets of a node.
func (s *Scenario) DegradeXBus(t sim.Time, node, s1, s2 int, factor float64) *Scenario {
	return s.Add(Event{At: t, Kind: LinkDegrade, Factor: factor,
		Target: Target{Node: node, Kind: TargetXBus, A: s1, B: s2}})
}

// StraggleGPU inflates a GPU's kernel costs by factor starting at t; if
// recoverAfter > 0 the device returns to nominal that much later.
func (s *Scenario) StraggleGPU(t sim.Time, node, gpu int, factor float64, recoverAfter sim.Time) *Scenario {
	return s.Add(Event{At: t, Kind: GPUStraggle, Factor: factor, Duration: recoverAfter,
		Target: Target{Node: node, Kind: TargetGPU, A: gpu}})
}

// PauseRank stalls a rank's MPI progress engine for d starting at t.
func (s *Scenario) PauseRank(t sim.Time, rank int, d sim.Time) *Scenario {
	return s.Add(Event{At: t, Kind: RankPause, Duration: d,
		Target: Target{Kind: TargetRank, A: rank}})
}

// KillGPU permanently kills local GPU gpu of node at time t. There is no
// recovery: the exchange layer must checkpoint (Options.CheckpointEvery) to
// survive it.
func (s *Scenario) KillGPU(t sim.Time, node, gpu int) *Scenario {
	return s.Add(Event{At: t, Kind: GPUFail,
		Target: Target{Node: node, Kind: TargetGPU, A: gpu}})
}

// KillRank permanently kills global MPI rank rank (and every GPU it drives)
// at time t. No recovery; requires exchange checkpointing.
func (s *Scenario) KillRank(t sim.Time, rank int) *Scenario {
	return s.Add(Event{At: t, Kind: RankFail,
		Target: Target{Kind: TargetRank, A: rank}})
}

// DropMsgs sets probability p of per-message drop on both directions of a
// node's NIC starting at t (p = 0 clears it).
func (s *Scenario) DropMsgs(t sim.Time, node int, p float64) *Scenario {
	return s.Add(Event{At: t, Kind: MsgDrop, Factor: p,
		Target: Target{Node: node, Kind: TargetNIC}})
}

// CorruptMsgs sets probability p of per-message payload corruption on both
// directions of a node's NIC starting at t (p = 0 clears it).
func (s *Scenario) CorruptMsgs(t sim.Time, node int, p float64) *Scenario {
	return s.Add(Event{At: t, Kind: MsgCorrupt, Factor: p,
		Target: Target{Node: node, Kind: TargetNIC}})
}

// DupMsgs sets probability p of per-message duplication on both directions
// of a node's NIC starting at t (p = 0 clears it).
func (s *Scenario) DupMsgs(t sim.Time, node int, p float64) *Scenario {
	return s.Add(Event{At: t, Kind: MsgDup, Factor: p,
		Target: Target{Node: node, Kind: TargetNIC}})
}

// LossyNIC applies drop, corrupt, and dup probabilities to a node's NIC in
// one call; zero probabilities add no event.
func (s *Scenario) LossyNIC(t sim.Time, node int, drop, corrupt, dup float64) *Scenario {
	if drop > 0 {
		s.DropMsgs(t, node, drop)
	}
	if corrupt > 0 {
		s.CorruptMsgs(t, node, corrupt)
	}
	if dup > 0 {
		s.DupMsgs(t, node, dup)
	}
	return s
}

// FlapNICPeriodic flaps a node's NIC starting at t: each cycle is period
// long with the NIC down for the first duty (in (0,1)) of it, repeated
// cycles times.
func (s *Scenario) FlapNICPeriodic(t sim.Time, node int, period sim.Time, duty float64, cycles int) *Scenario {
	return s.Add(Event{At: t, Kind: LinkFlap, Duration: period, Factor: duty, Repeat: cycles,
		Target: Target{Node: node, Kind: TargetNIC}})
}

// Validate statically checks the scenario without a machine: every event
// must have a known Kind, a non-negative At, a Factor and Duration in the
// range its kind gives them meaning in, and the target kind its kind acts
// on. Only the machine-shape checks (node, GPU, socket and rank ranges,
// existing NVLink and X-Bus pairs) wait for Injector.Install, which runs
// Validate first.
func (s *Scenario) Validate() error {
	for i, ev := range s.Events {
		if err := ev.validate(); err != nil {
			return fmt.Errorf("fault: scenario %q event %d: %w", s.Name, i, err)
		}
	}
	return nil
}

func (ev Event) validate() error {
	if ev.Kind < 0 || ev.Kind >= numKinds {
		return fmt.Errorf("unknown kind %d", int(ev.Kind))
	}
	if ev.At < 0 {
		return fmt.Errorf("negative event time %g", ev.At)
	}
	tg := ev.Target.Kind
	switch ev.Kind {
	case MsgDrop, MsgCorrupt, MsgDup:
		if ev.Factor < 0 || ev.Factor > 1 {
			return fmt.Errorf("%s probability %g outside [0,1]", ev.Kind, ev.Factor)
		}
	case LinkFlap:
		if ev.Duration <= 0 {
			return fmt.Errorf("non-positive flap period %g", ev.Duration)
		}
		if ev.Factor <= 0 || ev.Factor >= 1 {
			return fmt.Errorf("flap duty cycle %g outside (0,1)", ev.Factor)
		}
		if ev.Repeat < 0 {
			return fmt.Errorf("negative flap cycle count %d", ev.Repeat)
		}
	default:
		if ev.Factor < 0 {
			return fmt.Errorf("negative factor %g", ev.Factor)
		}
		if ev.Duration < 0 {
			return fmt.Errorf("negative duration %g", ev.Duration)
		}
	}
	switch ev.Kind {
	case LinkDegrade:
		if ev.Factor <= 0 {
			return fmt.Errorf("degrade factor %g <= 0", ev.Factor)
		}
	case GPUStraggle:
		if tg != TargetGPU {
			return fmt.Errorf("straggle needs a GPU target, got %s", tg)
		}
		if ev.Factor < 1 {
			return fmt.Errorf("straggle factor %g < 1", ev.Factor)
		}
	case RankPause:
		if tg != TargetRank {
			return fmt.Errorf("pause needs a rank target, got %s", tg)
		}
		if ev.Duration <= 0 {
			return fmt.Errorf("pause duration %g <= 0", ev.Duration)
		}
	case NICFlap:
		if tg != TargetNIC {
			return fmt.Errorf("flap needs a NIC target, got %s", tg)
		}
		if ev.Duration <= 0 {
			return fmt.Errorf("flap outage %g <= 0", ev.Duration)
		}
	case GPUFail:
		if tg != TargetGPU {
			return fmt.Errorf("gpu-fail needs a GPU target, got %s", tg)
		}
	case RankFail:
		if tg != TargetRank {
			return fmt.Errorf("rank-fail needs a rank target, got %s", tg)
		}
	}
	switch ev.Kind {
	case LinkDegrade, LinkFail, LinkRecover, NICFlap, LinkFlap, MsgDrop, MsgCorrupt, MsgDup:
		if tg == TargetGPU || tg == TargetRank {
			return fmt.Errorf("%s cannot target %s", ev.Kind, tg)
		}
	}
	return nil
}

// HasFatal reports whether the scenario contains permanent-loss events
// (GPUFail or RankFail), which require the exchange recovery layer
// (Options.CheckpointEvery > 0) to survive.
func (s *Scenario) HasFatal() bool {
	for _, ev := range s.Events {
		if ev.Kind == GPUFail || ev.Kind == RankFail {
			return true
		}
	}
	return false
}

// HasDelivery reports whether the scenario contains probabilistic delivery
// faults (MsgDrop, MsgCorrupt, or MsgDup), which require the MPI
// reliable-delivery envelope to remain correct.
func (s *Scenario) HasDelivery() bool {
	for _, ev := range s.Events {
		switch ev.Kind {
		case MsgDrop, MsgCorrupt, MsgDup:
			return true
		}
	}
	return false
}

// HasFlap reports whether the scenario contains periodic link flapping
// (LinkFlap), the pattern the exchange layer's quarantine hysteresis exists
// to absorb.
func (s *Scenario) HasFlap() bool {
	for _, ev := range s.Events {
		if ev.Kind == LinkFlap {
			return true
		}
	}
	return false
}

// Record is one applied fault action, for timeline reports. Kind classifies
// the action that was actually taken (a NICFlap event, for instance, records
// a nic-flap action at outage start and a link-recover action at the end).
type Record struct {
	At   sim.Time
	Kind string
	Desc string
}

func (r Record) String() string { return fmt.Sprintf("t=%-9.4gs %s", r.At, r.Desc) }

// Injector schedules a scenario's events on the engine and applies them to
// the live machine. RT may be nil if the scenario has no GPU targets; W may
// be nil if it has no rank targets.
type Injector struct {
	M   *machine.Machine
	RT  *cudart.Runtime
	W   *mpi.World
	log []Record

	// OnRecord, when set, observes every applied fault action as it is
	// recorded (in virtual-time order). It must be passive: telemetry, not
	// control flow.
	OnRecord func(Record)
}

// NewInjector binds an injector to the simulated hardware.
func NewInjector(m *machine.Machine, rt *cudart.Runtime, w *mpi.World) *Injector {
	return &Injector{M: m, RT: rt, W: w}
}

// Log returns the applied-fault timeline in application order.
func (inj *Injector) Log() []Record { return inj.log }

// Install validates every event (Scenario.Validate plus the machine-shape
// checks) and schedules the scenario on the engine. It must be called before
// (or during) Engine.Run; events in the past panic inside the engine as
// usual.
//
// Ordering contract: events apply in ascending At; events sharing the same
// virtual timestamp apply in their Events-list (insertion) order. The sort
// is stable, so the tie-break is an explicit guarantee scenario authors can
// rely on — e.g. a LinkRecover inserted before a LinkDegrade at the same
// instant always restores first.
func (inj *Injector) Install(sc *Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	for i, ev := range sc.Events {
		if err := inj.validate(ev); err != nil {
			return fmt.Errorf("fault: scenario %q event %d: %w", sc.Name, i, err)
		}
	}
	if sc.HasDelivery() && inj.W != nil {
		// Delivery faults are sampled by the MPI reliable-delivery layer;
		// installing them arms it with the scenario's seed.
		inj.W.Reliable = true
		inj.W.DeliverySeed = sc.Seed
	}
	ordered := append([]Event(nil), sc.Events...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	for _, ev := range ordered {
		ev := ev
		inj.M.Eng.After(ev.At, func() { inj.apply(ev) })
	}
	return nil
}

// validate checks an event against the machine's shape; the
// machine-independent rules are Scenario.Validate's.
func (inj *Injector) validate(ev Event) error {
	tg := ev.Target
	if tg.Kind != TargetRank {
		if tg.Node < 0 || tg.Node >= len(inj.M.Nodes) {
			return fmt.Errorf("node %d out of range", tg.Node)
		}
	}
	switch tg.Kind {
	case TargetNVLink:
		node := inj.M.Nodes[tg.Node]
		if ab, ba := node.NVLinkPair(tg.A, tg.B); ab == nil || ba == nil {
			return fmt.Errorf("GPUs %d and %d of node %d share no direct NVLink", tg.A, tg.B, tg.Node)
		}
	case TargetXBus:
		node := inj.M.Nodes[tg.Node]
		if ab, ba := node.XBusPair(tg.A, tg.B); ab == nil || ba == nil {
			return fmt.Errorf("sockets %d and %d of node %d share no X-Bus", tg.A, tg.B, tg.Node)
		}
	case TargetGPULink, TargetGPU:
		if tg.A < 0 || tg.A >= inj.M.Nodes[tg.Node].Config.GPUs() {
			return fmt.Errorf("GPU %d out of range on node %d", tg.A, tg.Node)
		}
		if tg.Kind == TargetGPU && inj.RT == nil {
			return fmt.Errorf("GPU target needs a CUDA runtime")
		}
	case TargetHostMem:
		if tg.A < 0 || tg.A >= inj.M.Nodes[tg.Node].Config.Sockets {
			return fmt.Errorf("socket %d out of range on node %d", tg.A, tg.Node)
		}
	case TargetRank:
		if inj.W == nil {
			return fmt.Errorf("rank target needs an MPI world")
		}
		if tg.A < 0 || tg.A >= inj.W.Size() {
			return fmt.Errorf("rank %d out of range", tg.A)
		}
	}
	switch ev.Kind {
	case RankFail:
		if inj.RT == nil {
			return fmt.Errorf("rank-fail needs a CUDA runtime (it kills the rank's devices)")
		}
		if inj.W.Size()%len(inj.M.Nodes) != 0 {
			return fmt.Errorf("ranks (%d) not evenly spread over nodes (%d)", inj.W.Size(), len(inj.M.Nodes))
		}
	case MsgDrop, MsgCorrupt, MsgDup:
		if inj.W == nil {
			return fmt.Errorf("%s needs an MPI world (loss is sampled at message delivery)", ev.Kind)
		}
	}
	return nil
}

// links resolves a link-class target to the directed links it covers.
func (inj *Injector) links(tg Target) []*flownet.Link {
	node := inj.M.Nodes[tg.Node]
	switch tg.Kind {
	case TargetNVLink:
		ab, ba := node.NVLinkPair(tg.A, tg.B)
		return []*flownet.Link{ab, ba}
	case TargetXBus:
		ab, ba := node.XBusPair(tg.A, tg.B)
		return []*flownet.Link{ab, ba}
	case TargetNIC:
		out, in := node.NIC()
		return []*flownet.Link{out, in}
	case TargetGPULink:
		up, down := node.GPUSocketLinks(tg.A)
		return []*flownet.Link{up, down}
	case TargetHostMem:
		return []*flownet.Link{node.HostMem(tg.A)}
	}
	panic("fault: no links for target " + tg.String())
}

func (inj *Injector) record(kind Kind, format string, args ...any) {
	rec := Record{At: inj.M.Eng.Now(), Kind: kind.String(), Desc: fmt.Sprintf(format, args...)}
	inj.log = append(inj.log, rec)
	if inj.OnRecord != nil {
		inj.OnRecord(rec)
	}
}

func (inj *Injector) apply(ev Event) {
	net := inj.M.Net
	switch ev.Kind {
	case LinkDegrade:
		for _, l := range inj.links(ev.Target) {
			net.DegradeLink(l, ev.Factor)
		}
		inj.record(LinkDegrade, "degrade %s to %g x healthy", ev.Target, ev.Factor)

	case LinkFail:
		for _, l := range inj.links(ev.Target) {
			net.FailLink(l)
		}
		inj.record(LinkFail, "fail %s", ev.Target)
		if ev.Duration > 0 {
			inj.M.Eng.After(ev.Duration, func() {
				for _, l := range inj.links(ev.Target) {
					net.RestoreLink(l)
				}
				inj.record(LinkRecover, "recover %s", ev.Target)
			})
		}

	case LinkRecover:
		for _, l := range inj.links(ev.Target) {
			net.RestoreLink(l)
		}
		inj.record(LinkRecover, "recover %s", ev.Target)

	case NICFlap:
		for _, l := range inj.links(ev.Target) {
			net.FailLink(l)
		}
		inj.record(NICFlap, "flap %s down", ev.Target)
		inj.M.Eng.After(ev.Duration, func() {
			for _, l := range inj.links(ev.Target) {
				net.RestoreLink(l)
			}
			inj.record(LinkRecover, "flap %s recovered", ev.Target)
		})

	case GPUStraggle:
		dev := inj.RT.DeviceAt(ev.Target.Node, ev.Target.A)
		dev.SetSlowFactor(ev.Factor)
		inj.record(GPUStraggle, "straggle %s at %gx", ev.Target, ev.Factor)
		if ev.Duration > 0 {
			inj.M.Eng.After(ev.Duration, func() {
				dev.SetSlowFactor(1)
				inj.record(GPUStraggle, "straggle %s recovered", ev.Target)
			})
		}

	case RankPause:
		inj.W.Rank(ev.Target.A).PauseProgress(ev.Duration)
		inj.record(RankPause, "pause %s for %gs", ev.Target, ev.Duration)

	case GPUFail:
		inj.RT.DeviceAt(ev.Target.Node, ev.Target.A).Fail()
		inj.record(GPUFail, "permanent loss of %s", ev.Target)

	case MsgDrop, MsgCorrupt, MsgDup:
		for _, l := range inj.links(ev.Target) {
			ls := l.Loss()
			switch ev.Kind {
			case MsgDrop:
				ls.Drop = ev.Factor
			case MsgCorrupt:
				ls.Corrupt = ev.Factor
			case MsgDup:
				ls.Dup = ev.Factor
			}
			l.SetLoss(ls)
		}
		inj.record(ev.Kind, "%s p=%g on %s", ev.Kind, ev.Factor, ev.Target)

	case LinkFlap:
		period := ev.Duration
		downFor := sim.Time(float64(period) * ev.Factor)
		cycles := ev.cycles()
		for c := 0; c < cycles; c++ {
			c := c
			off := sim.Time(c) * period
			inj.M.Eng.After(off, func() {
				for _, l := range inj.links(ev.Target) {
					net.FailLink(l)
				}
				inj.record(LinkFlap, "flap %s down (cycle %d/%d)", ev.Target, c+1, cycles)
			})
			inj.M.Eng.After(off+downFor, func() {
				for _, l := range inj.links(ev.Target) {
					net.RestoreLink(l)
				}
				inj.record(LinkRecover, "flap %s up (cycle %d/%d)", ev.Target, c+1, cycles)
			})
		}

	case RankFail:
		r := inj.W.Rank(ev.Target.A)
		r.Fail()
		// The rank's process is gone, so every device it was driving is
		// lost with it.
		rpn := inj.W.Size() / len(inj.M.Nodes)
		gpr := inj.M.Nodes[r.Node].Config.GPUs() / rpn
		lo := (ev.Target.A % rpn) * gpr
		for g := lo; g < lo+gpr; g++ {
			inj.RT.DeviceAt(r.Node, g).Fail()
		}
		inj.record(RankFail, "permanent loss of %s (GPUs %d-%d of node %d)", ev.Target, lo, lo+gpr-1, r.Node)
	}
}
