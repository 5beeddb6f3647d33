package exchange

// This file is the failure-recovery layer: a deterministic virtual-time
// checkpoint scheduler plus rollback recovery from permanent GPU and rank
// loss (fault.GPUFail / fault.RankFail). See DESIGN.md "Failure model".
//
// Semantics are fail-stop with detection at the next consistency point. A
// device that dies mid-iteration keeps "executing" in virtual time — the
// zombie window; real clusters discover death through timeouts, not
// instantly — the doomed iteration completes, and the coordinator detects
// the loss at the safe point after the timing allreduce. The next barrier is
// the recovery line: dead ranks leave the job, the coordinator (re-elected
// as the lowest surviving rank) performs recovery, survivors wait. Recovery
// (1) evicts dead ranks from the collectives, (2) re-runs phase-2 placement
// over the surviving capability matrix (placement.PlaceEvict), (3) restores
// every live subdomain from the last checkpoint epoch — interiors AND
// halos, so any state the doomed attempt corrupted is wiped — with
// subdomains whose home changed crossing the host fabric as real migration
// flows, (4) rebuilds every transfer plan against the surviving topology,
// and (5) resumes from the epoch's iteration. Replay from a common epoch is
// deterministic, which makes the recovered run's final halo bytes identical
// to a fault-free run of the same iteration count (asserted by the chaos
// test at the repository root).
//
// Checkpoints live in host memory on the subdomain's node, written by real
// D2H flows that contend for link bandwidth, so checkpoint overhead shows
// in the virtual clock. The model assumes checkpoint storage survives the
// death of the rank process that wrote it (on a real machine: a parallel
// file system, NVM, or a buddy rank's memory).

import (
	"fmt"
	"strconv"

	"github.com/nodeaware/stencil/internal/cudart"
	"github.com/nodeaware/stencil/internal/flownet"
	"github.com/nodeaware/stencil/internal/nvml"
	"github.com/nodeaware/stencil/internal/placement"
	"github.com/nodeaware/stencil/internal/sim"
	"github.com/nodeaware/stencil/internal/telemetry"
)

// RecoveryRecord is one recovery-layer action, for timeline reports.
type RecoveryRecord struct {
	At   sim.Time
	Kind string // "checkpoint", "failure", "rollback", "migrate", "resume"
	Desc string
}

func (r RecoveryRecord) String() string {
	return fmt.Sprintf("t=%-9.4gs %-10s %s", r.At, r.Kind, r.Desc)
}

// ckptSub is one subdomain's checkpoint slot: where the last snapshot lives
// and (in real-data mode) its bytes.
type ckptSub struct {
	node, socket int      // host memory holding the snapshot
	data         [][]byte // snapshot bytes; nil in time-only mode
}

// recovery is the per-run checkpoint/rollback state, owned by the
// coordinator but read by every rank at the recovery line.
type recovery struct {
	e          *Exchanger
	every      int
	iterations int
	epoch      int // checkpoints taken so far
	epochIter  int // iteration the last epoch restarts from
	subs       []ckptSub
	pending    *recoveryPlan
	planSeq    int
	runSpan    *telemetry.Span

	rollbacks int
	migrated  int // subdomain moves across all recoveries
}

// recoveryPlan is one detected failure's recovery order, published by the
// coordinator at the safe point and consumed by every rank at the next
// barrier.
type recoveryPlan struct {
	id         int
	dead       []bool // per rank: true = exits at the recovery line
	resumeIter int
	coord      int // new coordinator: lowest surviving rank
	done       *sim.Signal
	resolved   bool
}

func newRecovery(e *Exchanger, iterations int, runSpan *telemetry.Span) *recovery {
	rc := &recovery{e: e, every: e.Opts.CheckpointEvery, iterations: iterations, runSpan: runSpan}
	rc.subs = make([]ckptSub, len(e.Subs))
	return rc
}

func (rc *recovery) record(kind, format string, args ...any) {
	e := rc.e
	rec := RecoveryRecord{At: e.Eng.Now(), Kind: kind, Desc: fmt.Sprintf(format, args...)}
	e.RecoveryLog = append(e.RecoveryLog, rec)
	if tel := e.Opts.Telemetry; tel != nil {
		tel.Event(rec.At, "recovery", telemetry.F("action", kind), telemetry.F("desc", rec.Desc))
	}
}

// atSafePoint runs failure detection on the coordinator at the safe point:
// after the timing allreduce of iteration it, before the next barrier. No
// rank can pass that barrier until the coordinator enters it, so a plan
// published here is seen consistently by every rank at the barrier's exit.
// Checkpoints do NOT happen here — at this point other ranks may already be
// computing iteration it's stencil update, so a snapshot would tear; they
// happen at the loop top, where the barrier guarantees global quiescence
// (see checkpointDue / the run loop).
func (rc *recovery) atSafePoint(it int) {
	rc.detect()
}

// checkpointDue reports whether a checkpoint collective must run before
// iteration it. The predicate is a pure function of it, so every rank
// derives the same schedule without coordination: epoch 0 before the first
// iteration, then every K-th iteration boundary. After a rollback the
// resume iteration is a past epoch boundary, so the restored state is
// re-checkpointed — a cheap way to keep the epoch current under repeated
// failures.
func (rc *recovery) checkpointDue(it int) bool {
	return it%rc.every == 0
}

// detect scans for permanent losses and, on a sighting, publishes the
// recovery plan every rank consumes at the next barrier. Detection is
// edge-triggered by construction: after a recovery no subdomain sits on a
// dead device and every failed rank is deactivated, so the same loss is
// never detected twice. Returns whether an unconsumed plan is pending.
func (rc *recovery) detect() bool {
	if rc.pending != nil && !rc.pending.resolved {
		return true
	}
	e := rc.e
	failed := false
	for _, s := range e.Subs {
		if s.Dev.Dead() {
			failed = true
			break
		}
	}
	if !failed {
		for r := 0; r < e.W.Size(); r++ {
			if e.W.Rank(r).Failed() && !e.W.Deactivated(r) {
				failed = true
				break
			}
		}
	}
	if !failed {
		return false
	}
	dead := make([]bool, e.W.Size())
	coord := -1
	for r := 0; r < e.W.Size(); r++ {
		if e.W.Deactivated(r) {
			continue
		}
		if e.W.Rank(r).Failed() {
			dead[r] = true
			continue
		}
		if coord < 0 {
			coord = r
		}
	}
	if coord < 0 {
		panic("exchange: every rank lost; nothing left to recover")
	}
	rc.planSeq++
	rc.pending = &recoveryPlan{
		id:         rc.planSeq,
		dead:       dead,
		resumeIter: rc.epochIter,
		coord:      coord,
		done:       sim.NewSignal(e.Eng, fmt.Sprintf("recovery.%d", rc.planSeq)),
	}
	rc.record("failure", "permanent loss detected; rollback to iteration %d ordered (coordinator: rank %d)",
		rc.epochIter, coord)
	return true
}

// atRecoveryLine is the consistency protocol, run by every rank right after
// each barrier. If a plan this rank has not yet consumed is pending: dead
// ranks leave the job, the new coordinator performs the recovery, survivors
// wait for it; all survivors then resume from the plan's epoch iteration.
// The engine drains every runnable proc before advancing time, so all ranks
// observe the plan at the same barrier instant; the recovery's restore
// flows complete strictly later, making the done-signal handshake safe.
func (rc *recovery) atRecoveryLine(p *sim.Proc, rank int, lastHandled *int) (exit bool, resume int) {
	rp := rc.pending
	if rp == nil || rp.id <= *lastHandled {
		return false, -1
	}
	*lastHandled = rp.id
	if rp.dead[rank] {
		return true, 0
	}
	if rank == rp.coord {
		rc.performRecovery(p, rp)
		rp.resolved = true
		rp.done.Fire()
	} else {
		rp.done.Wait(p)
	}
	return false, rp.resumeIter
}

// checkpoint snapshots every subdomain to its node's host memory: one D2H
// flow per subdomain, all concurrent, contending on the GPU-socket and
// host-memory links exactly as bulk checkpoint traffic would. The byte
// snapshot commits at each flow's virtual completion time under the owning
// device's key, so parallel payload workers keep results bit-identical.
// The caller (run loop) guarantees every rank is parked at a barrier, so
// the snapshot is globally consistent. nextIter is the iteration replay
// resumes from if this epoch is restored.
func (rc *recovery) checkpoint(p *sim.Proc, nextIter int) {
	e := rc.e
	tel := e.Opts.Telemetry
	t0 := e.Eng.Now()
	var sp *telemetry.Span
	if tel != nil {
		sp = tel.StartSpanFeature("checkpoint", rc.runSpan, t0, telemetry.FeatureRecovery)
	}
	var done []*sim.Signal
	var total int64
	for i, s := range e.Subs {
		cs := &rc.subs[i]
		sub := s
		rk := e.W.Rank(sub.Rank)
		cs.node, cs.socket = sub.NodeID, rk.Socket
		bytes := sub.Dom.AllocBytes()
		total += bytes
		name := fmt.Sprintf("ckpt.e%d.sub%d", rc.epoch, i)
		path := e.M.Nodes[sub.NodeID].DevToHostPath(sub.LocalGPU, cs.socket)
		f := e.M.Net.StartFlow(name, path, float64(bytes))
		dev := int32(sub.Dev.ID)
		devID := sub.Dev.ID
		f.Done().OnFire(func() {
			end := e.Eng.Now()
			e.Eng.Defer(func() { cs.data = sub.Dom.Snapshot(cs.data) }, dev, dev)
			e.RT.Record(cudart.OpRecord{Kind: cudart.OpMemcpyD2H, Name: name,
				Device: devID, Stream: "ckpt", Start: t0, End: end, Bytes: bytes})
		})
		done = append(done, f.Done())
	}
	sim.WaitAll(p, done...)
	epoch := rc.epoch
	rc.epoch++
	rc.epochIter = nextIter
	rc.record("checkpoint", "epoch %d committed: %d subdomains, %d bytes; restart iteration %d",
		epoch, len(e.Subs), total, nextIter)
	if tel != nil {
		// Snapshot copies land in host memory on behalf of the recovery
		// feature: one retained buffer set per subdomain per epoch.
		if e.Opts.RealData {
			for _, s := range e.Subs {
				tel.AttributeAlloc(telemetry.FeatureRecovery, s.Dom.AllocBytes())
			}
		}
		tel.Counter("checkpoint_total").Inc()
		tel.Counter("checkpoint_bytes_total").Add(float64(total))
		tel.Gauge("checkpoint_epoch").Set(float64(epoch))
		sp.End(e.Eng.Now(), telemetry.L("epoch", strconv.Itoa(epoch)))
	}
}

// performRecovery executes one recovery plan on the coordinator's proc.
func (rc *recovery) performRecovery(p *sim.Proc, rp *recoveryPlan) {
	e := rc.e
	tel := e.Opts.Telemetry
	var rollSpan *telemetry.Span
	if tel != nil {
		rollSpan = tel.StartSpanFeature("rollback", rc.runSpan, e.Eng.Now(), telemetry.FeatureRecovery)
	}
	e.coordRank = rp.coord
	rc.rollbacks++

	// 1. Evict dead ranks from the collectives. Their procs exit at this
	// recovery line; barriers and allreduces count survivors from here on.
	var deadRanks []int
	for r, d := range rp.dead {
		if d {
			deadRanks = append(deadRanks, r)
			e.W.Deactivate(r)
		}
	}
	if len(deadRanks) > 0 {
		rc.record("rollback", "deactivated ranks %v; %d of %d survive", deadRanks, e.W.ActiveSize(), e.W.Size())
	}

	// 2. Re-run phase-2 placement over the surviving capability matrix.
	moved := e.evictSubdomains()

	// 3. Restore every live subdomain from the checkpoint epoch; migrated
	// subdomains cross the host fabric to their new homes as real flows.
	rc.restoreAll(p, moved)

	// 4. Rebuild every transfer plan against the surviving topology.
	e.rebuildPlans()

	// 5. Recovery already re-specialized against live link health (any
	// degradation that struck during the outage is baked into the fresh
	// plans), so mark the mutation counter consumed: the next adaptive tick
	// must not re-apply the same episode (TestRecoveryAdaptNoDoubleApply).
	e.adaptSeen = e.M.Net.Mutations() + 1

	// 6. Per-iteration rendezvous state from the doomed attempt has fired
	// signals the replay would trip over; drop it. Overlap readiness ledgers
	// additionally reference pre-rebuild plans, so replayed iterations must
	// get fresh ones (their verify pumps drain the doomed attempt and exit).
	e.slots = make(map[slotKey]*sim.Signal)
	e.groupStates = make(map[slotKey]*groupState)
	e.overlapStates = make(map[int]*overlapIterState)

	if tel != nil {
		tel.Counter("rollback_total").Inc()
		rollSpan.End(e.Eng.Now(), telemetry.L("resume_iter", strconv.Itoa(rp.resumeIter)))
	}
	rc.record("resume", "replaying from iteration %d (epoch %d)", rp.resumeIter, rc.epoch-1)
}

// evictSubdomains re-places every subdomain stranded on a dead device and
// returns the indices of subdomains that moved. Nodes that keep at least one
// live GPU re-place locally with placement.PlaceEvict (surviving subdomains
// stay put; orphans go to the least-loaded survivors). Orphans on nodes with
// no live GPU — and subdomains that had already migrated cross-node and lost
// their adopted device — fall back to the globally least-loaded live device
// (ties: lowest device id). Both passes are deterministic.
func (e *Exchanger) evictSubdomains() []int {
	gpusPerNode := e.M.Nodes[0].Config.GPUs()
	occ := make([]int, len(e.RT.Devices))
	for _, s := range e.Subs {
		occ[s.Dev.ID]++
	}
	var moved []int
	for n := 0; n < e.Opts.Nodes; n++ {
		alive := make([]bool, gpusPerNode)
		anyAlive := false
		for g := range alive {
			alive[g] = !e.RT.DeviceAt(n, g).Dead()
			anyAlive = anyAlive || alive[g]
		}
		// This node's original subdomain group, in GPURankIdx order. A
		// subdomain that migrated off the node earlier is pinned (-1).
		cur := make([]int, gpusPerNode)
		hasOrphan := false
		for s := 0; s < gpusPerNode; s++ {
			sub := e.Subs[n*gpusPerNode+s]
			if sub.NodeID != n {
				cur[s] = -1
				continue
			}
			cur[s] = sub.LocalGPU
			if sub.Dev.Dead() {
				hasOrphan = true
			}
		}
		if !hasOrphan || !anyAlive {
			continue // nothing to do here, or the global fallback handles it
		}
		// The dead GPU's links are not failed (fail-stop keeps the fabric
		// up), so theoretical discovery still yields a well-formed matrix;
		// dead devices are excluded via the alive mask instead.
		w := placement.FlowMatrixBoundary(e.Hier, e.Hier.NodeIndex(n),
			e.Opts.Radius, e.Opts.Quantities, e.Opts.ElemSize, e.Opts.OpenBoundary)
		d := placement.DistanceMatrix(nvml.Discover(e.M.Nodes[n]).Bandwidth)
		f, cost, err := placement.PlaceEvict(w, d, cur, alive)
		if err != nil {
			continue // no survivor after all: global fallback below
		}
		for s := range f {
			if f[s] < 0 || f[s] == cur[s] {
				continue
			}
			i := n*gpusPerNode + s
			e.moveSub(i, n, f[s], occ)
			moved = append(moved, i)
		}
		e.Assignments[n] = placement.EvictAssignment(f, cost)
	}
	// Global fallback: anything still on a dead device.
	for i, sub := range e.Subs {
		if !sub.Dev.Dead() {
			continue
		}
		best := -1
		for _, dv := range e.RT.Devices {
			if dv.Dead() {
				continue
			}
			if best < 0 || occ[dv.ID] < occ[best] {
				best = dv.ID
			}
		}
		if best < 0 {
			panic("exchange: no surviving device in the whole machine")
		}
		dv := e.RT.Devices[best]
		e.moveSub(i, dv.Node, dv.Local, occ)
		moved = append(moved, i)
	}
	return moved
}

// moveSub re-homes subdomain i onto (node, local), updating rank ownership
// and giving it a kernel stream on the new device.
func (e *Exchanger) moveSub(i, node, local int, occ []int) {
	sub := e.Subs[i]
	occ[sub.Dev.ID]--
	sub.NodeID = node
	sub.LocalGPU = local
	sub.Rank = node*e.Opts.RanksPerNode + local/e.gpusPerRank
	sub.Dev = e.RT.DeviceAt(node, local)
	sub.kernelStream = sub.Dev.NewStreamNum("sub", i, ".kernel.rec")
	occ[sub.Dev.ID]++
}

// restoreAll rolls every live subdomain back to the checkpoint epoch: one
// H2D flow per subdomain from the epoch's host snapshot into the (possibly
// new) device. Subdomains whose home changed cross the host-to-host fabric
// first — that is the migration traffic, charged like any other flow and
// reported separately. The byte restore commits at flow completion under
// the device key, ordered before any replayed work on the same device.
func (rc *recovery) restoreAll(p *sim.Proc, moved []int) {
	e := rc.e
	tel := e.Opts.Telemetry
	t0 := e.Eng.Now()
	movedSet := make(map[int]bool, len(moved))
	for _, i := range moved {
		movedSet[i] = true
	}
	var migSpan *telemetry.Span
	if tel != nil && len(moved) > 0 {
		migSpan = tel.StartSpanFeature("migrate", rc.runSpan, t0, telemetry.FeatureRecovery)
	}
	var done []*sim.Signal
	var restoreBytes, migrateBytes int64
	for i, s := range e.Subs {
		cs := &rc.subs[i]
		sub := s
		rk := e.W.Rank(sub.Rank)
		bytes := sub.Dom.AllocBytes()
		kind := "restore"
		if movedSet[i] {
			kind = "migrate"
			migrateBytes += bytes
		}
		restoreBytes += bytes
		name := fmt.Sprintf("%s.e%d.sub%d", kind, rc.epoch-1, i)
		var path []*flownet.Link
		if cs.node != sub.NodeID {
			path = append(path, e.M.HostToHostPath(cs.node, cs.socket, sub.NodeID, rk.Socket)...)
			path = append(path, e.M.Nodes[sub.NodeID].HostToDevPath(rk.Socket, sub.LocalGPU)...)
		} else {
			path = e.M.Nodes[sub.NodeID].HostToDevPath(cs.socket, sub.LocalGPU)
		}
		f := e.M.Net.StartFlow(name, path, float64(bytes))
		dev := int32(sub.Dev.ID)
		devID := sub.Dev.ID
		f.Done().OnFire(func() {
			end := e.Eng.Now()
			e.Eng.Defer(func() { sub.Dom.Restore(cs.data) }, dev, dev)
			e.RT.Record(cudart.OpRecord{Kind: cudart.OpMemcpyH2D, Name: name,
				Device: devID, Stream: "ckpt", Start: t0, End: end, Bytes: bytes})
		})
		done = append(done, f.Done())
		if movedSet[i] {
			rc.record("migrate", "subdomain %d -> node %d GPU %d (rank %d), %d bytes",
				i, sub.NodeID, sub.LocalGPU, sub.Rank, bytes)
		}
	}
	sim.WaitAll(p, done...)
	rc.migrated += len(moved)
	rc.record("rollback", "restored %d subdomains from epoch %d (%d migrated, %d bytes)",
		len(e.Subs), rc.epoch-1, len(moved), restoreBytes)
	// The next checkpoint re-derives each slot's home, so migrated
	// subdomains checkpoint to their new nodes automatically.
	if tel != nil {
		tel.Counter("restore_bytes_total").Add(float64(restoreBytes))
		if len(moved) > 0 {
			tel.Counter("migration_moves_total").Add(float64(len(moved)))
			tel.Counter("migration_bytes_total").Add(float64(migrateBytes))
			migSpan.End(e.Eng.Now(), telemetry.L("moves", strconv.Itoa(len(moved))))
		}
	}
}

// rebuildPlans drops every transfer plan and rebuilds phase-3 specialization
// from scratch against the surviving topology: endpoints may have changed
// arbitrarily, so patching plans in place is not worth the bug surface.
// Buffers and streams are re-allocated (the old ones may sit on dead
// devices). With the adaptive monitor on, the fresh plans additionally
// re-specialize against live link health — a degradation that struck during
// the outage is honored here, exactly once.
func (e *Exchanger) rebuildPlans() {
	e.Plans = nil
	e.machines = nil
	e.groups = nil
	e.sendDuties, e.recvDuties = nil, nil
	e.planPaths = nil
	e.methodMemo = nil
	e.buildPlans()
	if e.Opts.Adaptive {
		e.respecialize()
	}
	for _, pl := range e.Plans {
		if pl.Src.Dev.Dead() || pl.Dst.Dev.Dead() {
			panic(fmt.Sprintf("exchange: rebuilt plan %d still touches a dead device", pl.ID))
		}
	}
	if tel := e.Opts.Telemetry; tel != nil {
		counts := e.MethodCounts()
		for m := Method(0); m < numMethods; m++ {
			tel.Gauge("exchange_plans", telemetry.L("method", m.String())).Set(float64(counts[m]))
		}
	}
}
