package exchange

import (
	"fmt"

	"github.com/nodeaware/stencil/internal/cudart"
	"github.com/nodeaware/stencil/internal/flownet"
	"github.com/nodeaware/stencil/internal/nvml"
	"github.com/nodeaware/stencil/internal/placement"
	"github.com/nodeaware/stencil/internal/sim"
	"github.com/nodeaware/stencil/internal/telemetry"
)

// This file is the degradation-aware adaptation layer: a health monitor that
// runs at a deterministic safe point between iterations (rank 0, after the
// timing allreduce, before the next barrier — no rank can be mid-exchange)
// and re-runs the paper's phase-3 method selection against the live link
// state. A plan whose method crosses a failed or degraded link is demoted
// down the capability ladder; when the link heals the plan is promoted back.
// With AdaptPlacement, persistent degradation additionally re-runs phase-2
// placement against the degraded bandwidth matrix and migrates subdomains.

// AdaptRecord is one adaptation decision.
type AdaptRecord struct {
	At     sim.Time
	PlanID int // -1 for node-level events (re-placement)
	From   Method
	To     Method
	Reason string
}

func (r AdaptRecord) String() string {
	if r.PlanID < 0 {
		return fmt.Sprintf("t=%-9.4gs %s", r.At, r.Reason)
	}
	return fmt.Sprintf("t=%-9.4gs plan %d %s -> %s (%s)", r.At, r.PlanID, r.From, r.To, r.Reason)
}

// planRes holds one method's buffers and streams for a plan.
type planRes struct {
	devSend, devRecv   *cudart.Buffer
	hostSend, hostRecv *cudart.Buffer
	sendStream         *cudart.Stream
	recvStream         *cudart.Stream
}

const (
	// adaptThreshold is the link-health fraction (live capacity / healthy
	// capacity) below which a link counts as degraded.
	adaptThreshold = 0.5
	// adaptPersistTicks is how many consecutive degraded monitor ticks
	// trigger AdaptPlacement's re-placement of a node.
	adaptPersistTicks = 3
)

// linksHealthy reports whether every link on a path is up, above the
// degradation threshold, and not quarantined by the health monitor.
func (e *Exchanger) linksHealthy(path []*flownet.Link) bool {
	for _, l := range path {
		if l.Down() || l.Health() < adaptThreshold || e.health.quarantined(l) {
			return false
		}
	}
	return true
}

// stagedLinks is the path a STAGED transfer crosses outside the always-local
// stream work: D2H on the source, MPI transport, H2D on the destination.
func (e *Exchanger) stagedLinks(pl *Plan) []*flownet.Link {
	srcRank, dstRank := e.W.Rank(pl.Src.Rank), e.W.Rank(pl.Dst.Rank)
	srcNode, dstNode := e.M.Nodes[pl.Src.NodeID], e.M.Nodes[pl.Dst.NodeID]
	var path []*flownet.Link
	path = append(path, srcNode.DevToHostPath(pl.Src.LocalGPU, srcRank.Socket)...)
	path = append(path, e.M.HostToHostPath(pl.Src.NodeID, srcRank.Socket, pl.Dst.NodeID, dstRank.Socket)...)
	path = append(path, dstNode.HostToDevPath(dstRank.Socket, pl.Dst.LocalGPU)...)
	return path
}

// planPaths caches one plan's candidate link paths so the monitor does not
// rebuild (and re-allocate) them on every tick. Invalidated when re-placement
// moves the plan's endpoints.
type planPaths struct {
	built bool
	p2p   []*flownet.Link // intra-node device-to-device (Peer/Colocated rungs)
	ca    []*flownet.Link // CUDA-aware remote path
}

// pathsOf returns the plan's cached candidate paths, building them on first
// use (or after invalidation).
func (e *Exchanger) pathsOf(pl *Plan) *planPaths {
	if e.planPaths == nil {
		e.planPaths = make([]planPaths, len(e.Plans))
	}
	pp := &e.planPaths[pl.ID]
	if !pp.built {
		pp.built = true
		src, dst := pl.Src, pl.Dst
		pp.p2p, pp.ca = nil, nil
		if src.NodeID == dst.NodeID {
			pp.p2p = e.M.Nodes[src.NodeID].DevToDevPath(src.LocalGPU, dst.LocalGPU)
		}
		if e.Opts.CUDAAware {
			pp.ca = e.M.DevToDevRemotePath(src.NodeID, src.LocalGPU, dst.NodeID, dst.LocalGPU)
		}
	}
	return pp
}

// pickMethodHealthy is pickMethod with a health gate on each rung: the
// first-applicable method whose links are all up and above the threshold
// wins; STAGED is the unconditional floor (it has no alternative). With
// every link healthy it selects exactly what pickMethod selected at setup.
func (e *Exchanger) pickMethodHealthy(pl *Plan) Method {
	caps := e.Opts.Caps
	src, dst := pl.Src, pl.Dst
	if src == dst && caps.Kernel {
		// Device-internal; no link to degrade and no cheaper fallback.
		return MethodKernel
	}
	pp := e.pathsOf(pl)
	if src.NodeID == dst.NodeID {
		if src.Rank == dst.Rank && caps.Peer && e.linksHealthy(pp.p2p) {
			return MethodPeer
		}
		if src.Rank != dst.Rank && caps.Colocated && e.linksHealthy(pp.p2p) {
			return MethodColocated
		}
	}
	if e.Opts.CUDAAware && e.linksHealthy(pp.ca) {
		return MethodCudaAware
	}
	return MethodStaged
}

// healthMask packs the health state of every link the method selection can
// observe — each plan's candidate paths, in plan order — into a string key:
// one byte per link, bit 0 = down, bit 1 = below the degradation threshold.
// Two ticks with equal masks select identical method vectors, so the mask
// keys the methodMemo. The mask is exact (no hashing): a collision would
// silently mis-specialize plans.
func (e *Exchanger) healthMask() string {
	buf := make([]byte, 0, 2*len(e.Plans))
	state := func(l *flownet.Link) byte {
		var b byte
		if l.Down() {
			b |= 1
		}
		if l.Health() < adaptThreshold {
			b |= 2
		}
		if e.health.quarantined(l) {
			b |= 4
		}
		return b
	}
	for _, pl := range e.Plans {
		pp := e.pathsOf(pl)
		for _, l := range pp.p2p {
			buf = append(buf, state(l))
		}
		for _, l := range pp.ca {
			buf = append(buf, state(l))
		}
		buf = append(buf, 0xff) // plan separator
	}
	return string(buf)
}

// switchMethod re-specializes a plan, stashing the old method's resources
// and reusing cached ones when the plan has run under the new method before.
func (e *Exchanger) switchMethod(pl *Plan, to Method, reason string) {
	from := pl.Method
	if pl.resCache == nil {
		pl.resCache = make(map[Method]*planRes)
	}
	pl.resCache[from] = &planRes{
		devSend: pl.devSend, devRecv: pl.devRecv,
		hostSend: pl.hostSend, hostRecv: pl.hostRecv,
		sendStream: pl.sendStream, recvStream: pl.recvStream,
	}
	pl.Method = to
	if res, ok := pl.resCache[to]; ok {
		pl.devSend, pl.devRecv = res.devSend, res.devRecv
		pl.hostSend, pl.hostRecv = res.hostSend, res.hostRecv
		pl.sendStream, pl.recvStream = res.sendStream, res.recvStream
	} else {
		pl.devSend, pl.devRecv = nil, nil
		pl.hostSend, pl.hostRecv = nil, nil
		pl.sendStream, pl.recvStream = nil, nil
		e.preparePlan(pl)
	}
	// Receive duties differ per method (KERNEL/PEERMEMCPY have none), so
	// the per-rank duty lists must be rebuilt before the next iteration.
	e.sendDuties, e.recvDuties = nil, nil
	e.logAdapt(AdaptRecord{At: e.Eng.Now(), PlanID: pl.ID, From: from, To: to, Reason: reason})
}

func (e *Exchanger) logAdapt(r AdaptRecord) {
	e.AdaptLog = append(e.AdaptLog, r)
	tel := e.Opts.Telemetry
	if tel == nil {
		return
	}
	if r.PlanID < 0 {
		tel.Event(r.At, "adapt", telemetry.F("reason", r.Reason))
		return
	}
	tel.Counter("adapt_switches_total",
		telemetry.L("from", r.From.String()), telemetry.L("to", r.To.String())).Inc()
	tel.Gauge("exchange_plans", telemetry.L("method", r.From.String())).Add(-1)
	tel.Gauge("exchange_plans", telemetry.L("method", r.To.String())).Add(1)
	tel.Event(r.At, "adapt",
		telemetry.F("plan", r.PlanID),
		telemetry.F("from", r.From.String()),
		telemetry.F("to", r.To.String()),
		telemetry.F("reason", r.Reason))
}

// adaptTick is the monitor body. It runs on rank 0's proc at the inter-
// iteration safe point and re-specializes every plan against live health.
//
// Two caches keep the steady state cheap. First, the flow network counts
// health mutations (link fail/degrade/restore, capacity change); a tick whose
// counter matches the last rescan skips plan re-specialization outright —
// nothing selection observes can have changed. Second, when a rescan does
// run, the selected method vector is memoized under the exact health mask,
// so a recurring fault pattern (a flapping NIC, a periodic degradation)
// replays the earlier decision instead of re-running selection per plan.
// Re-placement persistence tracking still runs every tick: degradeStreak
// counts ticks, not health transitions.
func (e *Exchanger) adaptTick(p *sim.Proc) {
	// The health monitor scores links and moves quarantine state first; a
	// quarantine transition changes what selection observes without any flow-
	// network mutation, so it forces a rescan on its own.
	healthChanged := false
	if e.health != nil {
		healthChanged = e.health.tick()
	}
	if mut := e.M.Net.Mutations(); e.adaptSeen != mut+1 || healthChanged {
		e.adaptSeen = mut + 1
		e.respecialize()
	}
	if e.Opts.AdaptPlacement {
		e.checkReplacement(p)
	}
}

// applyMethod moves a plan to method want if it differs, logging the switch.
func (e *Exchanger) applyMethod(pl *Plan, want Method) {
	if want == pl.Method {
		return
	}
	reason := "degraded path"
	if want < pl.Method {
		reason = "path recovered"
	}
	e.switchMethod(pl, want, reason)
}

// respecialize re-runs phase-3 method selection for every plan against live
// link health, via the health-mask memo when this exact mask has been decided
// before.
func (e *Exchanger) respecialize() {
	mask := e.healthMask()
	if vec, ok := e.methodMemo[mask]; ok {
		for i, pl := range e.Plans {
			if pl.group != nil {
				continue
			}
			e.applyMethod(pl, vec[i])
		}
		return
	}
	for _, pl := range e.Plans {
		if pl.group != nil {
			continue // aggregated inter-node STAGED: already the floor
		}
		e.applyMethod(pl, e.pickMethodHealthy(pl))
	}
	vec := make([]Method, len(e.Plans))
	for i, pl := range e.Plans {
		vec[i] = pl.Method
	}
	if e.methodMemo == nil {
		e.methodMemo = make(map[string][]Method)
	}
	e.methodMemo[mask] = vec
}

// checkReplacement tracks per-node degradation persistence and re-runs
// phase-2 placement once per degradation episode.
func (e *Exchanger) checkReplacement(p *sim.Proc) {
	for n := 0; n < e.Opts.Nodes; n++ {
		degraded := false
		for _, l := range e.M.Nodes[n].IntraLinks() {
			if l.Down() || l.Health() < adaptThreshold {
				degraded = true
				break
			}
		}
		if !degraded {
			e.degradeStreak[n] = 0
			e.replaceDone[n] = false
			continue
		}
		e.degradeStreak[n]++
		if e.degradeStreak[n] >= adaptPersistTicks && !e.replaceDone[n] {
			e.replaceDone[n] = true
			e.replaceNode(p, n)
		}
	}
}

// replaceNode re-runs phase-2 placement for one node against the live
// (degraded) bandwidth matrix and migrates subdomains whose GPU changed,
// charging the migration copies on the flow network.
func (e *Exchanger) replaceNode(p *sim.Proc, n int) {
	nodeIdx := e.Hier.NodeIndex(n)
	topo := nvml.Discover(e.M.Nodes[n]) // reads live, degraded capacities
	asgn := placement.PlaceBoundary(e.Hier, nodeIdx, topo.Bandwidth,
		e.Opts.Radius, e.Opts.Quantities, e.Opts.ElemSize, e.Opts.NodeAware, e.Opts.OpenBoundary)
	gpusPerNode := e.M.Nodes[n].Config.GPUs()
	moved := 0
	var migrations []*sim.Signal
	for s := 0; s < gpusPerNode; s++ {
		sub := e.Subs[n*gpusPerNode+s]
		newLocal := asgn.SubToGPU[s]
		if newLocal == sub.LocalGPU {
			continue
		}
		moved++
		oldDev := sub.Dev
		newDev := e.RT.DeviceAt(n, newLocal)
		// Charge the state migration: the full subdomain (with halos) moves
		// device-to-device over whatever links remain.
		r := e.Opts.Radius
		sz := sub.Dom.Size
		bytes := int64(sz.X+2*r) * int64(sz.Y+2*r) * int64(sz.Z+2*r) *
			int64(e.Opts.Quantities) * int64(e.Opts.ElemSize)
		src := oldDev.Malloc(bytes)
		dst := newDev.Malloc(bytes)
		mig := oldDev.NewStream(fmt.Sprintf("migrate.%v", sub.Global))
		migrations = append(migrations, mig.MemcpyPeerAsync(
			fmt.Sprintf("migrate.%v", sub.Global), dst, 0, src, 0, bytes))
		sub.LocalGPU = newLocal
		sub.Dev = newDev
		sub.Rank = n*e.Opts.RanksPerNode + newLocal/e.gpusPerRank
		sub.kernelStream = newDev.NewStreamNum("sub", n*gpusPerNode+s, ".kernel.r")
	}
	if moved == 0 {
		e.logAdapt(AdaptRecord{At: e.Eng.Now(), PlanID: -1,
			Reason: fmt.Sprintf("node %d: re-placement unchanged under degradation", n)})
		return
	}
	sim.WaitAll(p, migrations...)
	e.Assignments[n] = asgn
	// Endpoints moved: cached candidate paths and memoized method vectors
	// describe the old device assignment — drop them wholesale (re-placement
	// is rare; the caches rebuild lazily).
	e.planPaths = nil
	e.methodMemo = nil
	// Every plan touching this node re-specializes from
	// scratch (cached resources sit on the wrong devices now).
	for _, pl := range e.Plans {
		if pl.Src.NodeID != n && pl.Dst.NodeID != n {
			continue
		}
		from := pl.Method
		pl.resCache = nil
		pl.Method = e.pickMethodHealthy(pl)
		pl.devSend, pl.devRecv = nil, nil
		pl.hostSend, pl.hostRecv = nil, nil
		pl.sendStream, pl.recvStream = nil, nil
		e.preparePlan(pl)
		if pl.Method != from {
			e.logAdapt(AdaptRecord{At: e.Eng.Now(), PlanID: pl.ID, From: from, To: pl.Method,
				Reason: "re-placement"})
		}
	}
	e.sendDuties, e.recvDuties = nil, nil
	e.logAdapt(AdaptRecord{At: e.Eng.Now(), PlanID: -1,
		Reason: fmt.Sprintf("node %d: re-placed %d subdomains under persistent degradation", n, moved)})
}

// PlanInfo is an inspection snapshot of one transfer plan.
type PlanInfo struct {
	ID       int
	Src, Dst [3]int // global grid indices
	SrcRank  int
	DstRank  int
	Method   Method
	Bytes    int64
	Class    LinkClass
}

// PlanInfos snapshots the current plans (method selection reflects any
// adaptation that has happened so far).
func (e *Exchanger) PlanInfos() []PlanInfo {
	infos := make([]PlanInfo, len(e.Plans))
	for i, p := range e.Plans {
		infos[i] = PlanInfo{
			ID:      p.ID,
			Src:     [3]int{p.Src.Global.X, p.Src.Global.Y, p.Src.Global.Z},
			Dst:     [3]int{p.Dst.Global.X, p.Dst.Global.Y, p.Dst.Global.Z},
			SrcRank: p.Src.Rank,
			DstRank: p.Dst.Rank,
			Method:  p.Method,
			Bytes:   p.Bytes,
			Class:   e.classOf(p),
		}
	}
	return infos
}

// MethodCounts returns the current per-method plan counts (before a run this
// is the setup-time selection; after, it reflects adaptation).
func (e *Exchanger) MethodCounts() map[Method]int {
	c := make(map[Method]int)
	for _, p := range e.Plans {
		c[p.Method]++
	}
	return c
}
