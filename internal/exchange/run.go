package exchange

import (
	"fmt"
	"strconv"

	"github.com/nodeaware/stencil/internal/mpi"
	"github.com/nodeaware/stencil/internal/sim"
	"github.com/nodeaware/stencil/internal/telemetry"
)

// planMachine is one side of a plan's exchange, its sender or its receiver
// state machine (§III-D): it waits on sig, and once sig fires the owning
// rank runs the next state on its CPU (charging its costs). Each plan has
// two, reused every iteration (see planMachines): the safe point proves
// every machine of an iteration finished before any rank starts the next
// one, and a verifier re-exchange starts a plan's machines only after they
// finished. A waiting machine registers itself on its signal, so driving
// one allocates nothing.
type planMachine struct {
	d    *stepDriver
	pl   *Plan
	sig  *sim.Signal // what the machine waits on; nil once it finished
	next mstate      // what the rank runs when sig fires
}

// mstate is the state a machine runs once its signal fires.
type mstate uint8

const (
	mDone   mstate = iota // nothing: the machine finishes
	mSend                 // staged or packed: hand the payload to MPI
	mUnpack               // landed: copy it to the device (STAGED) and unpack
)

// planMachines returns a plan's sender and receiver machines. They live in
// one slice for the whole plan set, allocated by the first exchange rather
// than by New, which keeps setup as lean as it was without them; a rebuilt
// plan set (recovery) gets a fresh slice.
func (e *Exchanger) planMachines(pl *Plan) []planMachine {
	if len(e.machines) != 2*len(e.Plans) {
		e.machines = make([]planMachine, 2*len(e.Plans))
	}
	return e.machines[2*pl.ID : 2*pl.ID+2]
}

// Handle queues the machine on its driver when its signal fires.
func (m *planMachine) Handle() {
	d := m.d
	d.pending--
	d.ready = append(d.ready, m)
	d.gate.Open()
}

// stepDriver drives a rank's state machines of one iteration to completion
// with a ready queue: each waiting machine is queued when its signal fires,
// and the rank process parks on one reusable Gate instead of re-registering
// with every outstanding signal per wake (a wait-for-any loop is quadratic
// in the number of in-flight transfers). led is the iteration's overlap
// ledger, nil in barrier mode and for verifier re-exchanges.
type stepDriver struct {
	e       *Exchanger
	iter    int
	led     *overlapIterState
	gate    *sim.Gate
	pending int // machines whose signal has not fired yet
	ready   []*planMachine
	cursor  int
}

// payloads are a plan's kernel payloads (the real pack, unpack and
// self-exchange), built on its first real-data exchange. Time-only runs have
// none: their payloads would be no-ops.
type payloads struct {
	self, pack, unpack func()
}

var noPayloads payloads

func (e *Exchanger) payloadsOf(pl *Plan) *payloads {
	if !e.Opts.RealData {
		return &noPayloads
	}
	if pl.payloads == nil {
		pl.payloads = &payloads{
			self:   func() { pl.Src.Dom.SelfExchange(pl.Dir) },
			pack:   e.packPayload(pl),
			unpack: func() { pl.Dst.Dom.Unpack(pl.devRecv.Data(), neg(pl.Dir)) },
		}
	}
	return pl.payloads
}

// startSend issues the send side of a plan and returns its sender machine.
// Pure-CUDA methods finish with their stream chain; MPI-coupled methods have
// a second state.
func (d *stepDriver) startSend(p *sim.Proc, pl *Plan) *planMachine {
	e := d.e
	rt := e.RT
	bw := e.M.Params.PackBW
	pay := e.payloadsOf(pl)
	m := &e.planMachines(pl)[0]
	*m = planMachine{d: d, pl: pl}
	switch pl.Method {
	case MethodKernel:
		// One kernel moves the wrapped halo inside device memory; no pack
		// or unpack (lowest-overhead method).
		rt.LaunchCost(p)
		m.sig = pl.Src.kernelStream.KernelNum("kernelex.p", pl.ID, pl.Bytes, bw, pay.self)

	case MethodPeer:
		// pack -> cudaMemcpyPeerAsync -> unpack; the whole chain is CUDA
		// ops, ordered by streams and an event dependency.
		rt.LaunchCost(p)
		pl.sendStream.KernelNum("pack.p", pl.ID, pl.Bytes, bw, pay.pack)
		rt.IssueCost(p)
		cp := pl.sendStream.MemcpyPeerAsyncNum("peercp.p", pl.ID,
			pl.devRecv, 0, pl.devSend, 0, pl.Bytes)
		rt.LaunchCost(p)
		m.sig = pl.recvStream.KernelNum("unpack.p", pl.ID, pl.Bytes, bw, pay.unpack, cp)

	case MethodColocated:
		// The destination buffer was IPC-opened at setup; the copy goes
		// straight into the receiving rank's device memory and a shared
		// event (the slot) tells the receiver it landed.
		slot := e.slot(pl.ID, d.iter)
		rt.LaunchCost(p)
		pl.sendStream.KernelNum("pack.p", pl.ID, pl.Bytes, bw, pay.pack)
		rt.IssueCost(p)
		cp := pl.sendStream.MemcpyPeerAsyncNum("colocp.p", pl.ID,
			pl.devRecv, 0, pl.devSend, 0, pl.Bytes)
		cp.Forward(slot)
		m.sig = cp

	case MethodStaged:
		// pack -> D2H on the stream; once staged, the CPU hands the host
		// buffer to MPI_Isend (second state). Aggregated plans stage into
		// the rank pair's shared buffer; the last staging triggers one
		// combined Isend.
		rt.LaunchCost(p)
		pl.sendStream.KernelNum("pack.p", pl.ID, pl.Bytes, bw, pay.pack)
		rt.IssueCost(p)
		host, off := pl.hostSend, int64(0)
		if g := pl.group; g != nil {
			host, off = g.hostSend, pl.aggOffset
		}
		m.sig = pl.sendStream.MemcpyAsyncNum("d2h.p", pl.ID, host, off, pl.devSend, 0, pl.Bytes)
		m.next = mSend

	case MethodCudaAware:
		// pack on the stream; once packed, the device buffer goes straight
		// to MPI (which internally serializes on the default stream).
		rt.LaunchCost(p)
		m.sig = pl.sendStream.KernelNum("pack.p", pl.ID, pl.Bytes, bw, pay.pack)
		m.next = mSend

	default:
		panic("exchange: unknown method")
	}
	return m
}

// startRecv issues the receive side of a plan and returns its receiver
// machine, or nil for methods the sender's rank completes alone.
func (d *stepDriver) startRecv(p *sim.Proc, pl *Plan) *planMachine {
	if pl.Method == MethodKernel || pl.Method == MethodPeer {
		return nil // handled entirely by the sender's rank (same process)
	}
	e := d.e
	m := &e.planMachines(pl)[1]
	*m = planMachine{d: d, pl: pl, next: mUnpack}
	switch pl.Method {
	case MethodColocated:
		slot := e.slot(pl.ID, d.iter)
		if e.Opts.NoOverlap {
			// Serial mode must not pre-enqueue stream work gated on another
			// rank's future copy: a CUDA-aware transfer's device-wide
			// synchronization could then wait on an event that only fires
			// after this rank unblocks — a deadlock. Wait on the CPU
			// instead, then launch the unpack.
			m.sig = slot
			break
		}
		// Pre-launch the unpack gated on the shared IPC event; the stream
		// waits, the CPU does not.
		e.RT.LaunchCost(p)
		m.sig = pl.recvStream.KernelNum("unpack.p", pl.ID, pl.Bytes, e.M.Params.PackBW,
			e.payloadsOf(pl).unpack, slot)
		m.next = mDone

	case MethodStaged:
		switch {
		case pl.group != nil:
			g := pl.group
			gs := e.groupStateOf(g, d.iter)
			if gs.recv == nil {
				gs.recv = e.W.Rank(g.dstRank).Irecv(g.srcRank, g.tag, g.hostRecv, 0, g.bytes)
			}
			m.sig = gs.recv.Done()
		case d.led.channeled(pl):
			// Released at the channel's payload acceptance, not at the
			// sender's ACK.
			m.sig = d.led.acceptedOf(e, pl)
		default:
			m.sig = e.W.Rank(pl.Dst.Rank).Irecv(pl.Src.Rank, pl.Tag, pl.hostRecv, 0, pl.Bytes).Done()
		}

	case MethodCudaAware:
		m.sig = e.W.Rank(pl.Dst.Rank).Irecv(pl.Src.Rank, pl.Tag, pl.devRecv, 0, pl.Bytes).Done()

	default:
		panic("exchange: unknown method")
	}
	return m
}

// advance runs a machine's next state once its signal has fired and
// reports whether it waits again. A finished machine drops its signal (and
// so the op or request behind it) and, with an overlap ledger, counts
// toward its plan's arrival fan-in.
func (d *stepDriver) advance(p *sim.Proc, m *planMachine) bool {
	switch m.next {
	case mSend:
		if d.send(m) {
			return true
		}
	case mUnpack:
		d.unpack(p, m)
		return true
	}
	m.sig, m.d = nil, nil
	if d.led != nil {
		d.led.arrival[m.pl.ID].Done()
	}
	return false
}

// send hands a staged or packed payload to MPI. It reports false when an
// aggregated plan's staging is not its group's last: only the final staging
// carries the chain forward (waiting per plan would deadlock the serial
// NoOverlap driver before the group ever sends).
func (d *stepDriver) send(m *planMachine) bool {
	e, pl := d.e, m.pl
	m.next = mDone
	switch {
	case pl.group != nil:
		g := pl.group
		gs := e.groupStateOf(g, d.iter)
		gs.remaining--
		if gs.remaining > 0 {
			return false
		}
		m.sig = e.W.Rank(g.srcRank).Isend(g.dstRank, g.tag, g.hostSend, 0, g.bytes).Done()
	case d.led.channeled(pl):
		// One Start on the plan's persistent channel; the machine finishes
		// at payload acceptance and the ACK tail drains in the background
		// (the send buffer is not re-read after acceptance — later
		// deliveries of the same sequence number are deduplicated without
		// touching it — and the next iteration's pack cannot start before
		// the coordinator passes this iteration's safe point).
		acc := d.led.acceptedOf(e, pl)
		ch := e.W.OpenChannel(e.W.Rank(pl.Src.Rank), e.W.Rank(pl.Dst.Rank), pl.Tag)
		ch.Start(pl.hostSend, 0, pl.hostRecv, 0, pl.Bytes, acc.Fire, func() {})
		m.sig = acc
	case pl.Method == MethodCudaAware:
		m.sig = e.W.Rank(pl.Src.Rank).Isend(pl.Dst.Rank, pl.Tag, pl.devSend, 0, pl.Bytes).Done()
	default:
		m.sig = e.W.Rank(pl.Src.Rank).Isend(pl.Dst.Rank, pl.Tag, pl.hostSend, 0, pl.Bytes).Done()
	}
	return true
}

// unpack copies a landed STAGED payload to the device and unpacks it; the
// other methods' payloads are already in device memory.
func (d *stepDriver) unpack(p *sim.Proc, m *planMachine) {
	e, pl := d.e, m.pl
	rt := e.RT
	if pl.Method == MethodStaged {
		host, off := pl.hostRecv, int64(0)
		if g := pl.group; g != nil {
			host, off = g.hostRecv, pl.aggOffset
		}
		rt.IssueCost(p)
		pl.recvStream.MemcpyAsyncNum("h2d.p", pl.ID, pl.devRecv, 0, host, off, pl.Bytes)
	}
	rt.LaunchCost(p)
	m.sig = pl.recvStream.KernelNum("unpack.p", pl.ID, pl.Bytes, e.M.Params.PackBW, e.payloadsOf(pl).unpack)
	m.next = mDone
}

func (d *stepDriver) add(m *planMachine) {
	if m.sig.Fired() {
		d.ready = append(d.ready, m)
		return
	}
	d.pending++
	m.sig.Notify(m)
}

// drain advances fired machines in fire order until none remains. A
// machine's next state may sleep, which lets further machines fire and
// extend the ready queue mid-scan; the cursor loop picks them up in order.
func (d *stepDriver) drain(p *sim.Proc) {
	for {
		for d.cursor < len(d.ready) {
			m := d.ready[d.cursor]
			d.ready[d.cursor] = nil
			d.cursor++
			if d.advance(p, m) {
				d.add(m)
			}
		}
		d.ready = d.ready[:0]
		d.cursor = 0
		if d.pending == 0 {
			return
		}
		d.gate.Await()
	}
}

// issue posts the receive side of every plan in recvs, then the send side of
// every plan in sends — receives first, so no send can block on an unposted
// receive — into a fresh step driver for the caller to drain (§III-D's poll
// loop).
func (e *Exchanger) issue(p *sim.Proc, recvs, sends []*Plan, iter int, led *overlapIterState) *stepDriver {
	d := &stepDriver{e: e, iter: iter, led: led, gate: sim.NewGate(p)}
	for _, pl := range recvs {
		if m := d.startRecv(p, pl); m != nil {
			d.add(m)
		}
	}
	for _, pl := range sends {
		d.add(d.startSend(p, pl))
	}
	return d
}

// runIterationSerial is the NoOverlap ablation: receives are still posted up
// front (MPI matching requires it to avoid deadlock) but every transfer is
// then driven to completion before the next one starts.
func (e *Exchanger) runIterationSerial(p *sim.Proc, rank, iter int) {
	d := &stepDriver{e: e, iter: iter}
	for _, pl := range e.recvDutiesOf(rank) {
		d.startRecv(p, pl)
	}
	for _, pl := range e.sendDutiesOf(rank) {
		d.driveToCompletion(p, d.startSend(p, pl))
	}
	for _, pl := range e.recvDutiesOf(rank) {
		d.driveToCompletion(p, &e.planMachines(pl)[1])
	}
}

func (d *stepDriver) driveToCompletion(p *sim.Proc, m *planMachine) {
	for {
		m.sig.Wait(p)
		if !d.advance(p, m) {
			return
		}
	}
}

// launchCompute launches one compute kernel per subdomain the rank owns once
// the exchange and its safe point are behind it (barrier mode).
func (e *Exchanger) launchCompute(p *sim.Proc, rank int, compute func(*Sub)) []*sim.Signal {
	if e.verifying() {
		// Compute mutates send regions and halos. Without this barrier a
		// non-coordinator rank would launch its kernels right after the
		// allreduce, racing the coordinator's verification: quadrant
		// checksums would compare post-compute send regions against
		// pre-compute halos, and a re-exchange could write post-compute
		// bytes into a neighbor's halo mid-iteration. Hold every rank
		// until the coordinator finishes its safe-point duties.
		e.W.Barrier(p)
	}
	// Ownership is re-read every iteration: AdaptPlacement (or a recovery
	// migration) may move a subdomain to another rank's GPU mid-run.
	var done []*sim.Signal
	for _, s := range e.Subs {
		if s.Rank != rank {
			continue
		}
		s := s
		bytes := int64(s.Dom.Size.Vol()) * int64(e.Opts.ElemSize) * int64(e.Opts.Quantities)
		e.RT.LaunchCost(p)
		done = append(done, s.kernelStream.Kernel(
			e.computeName("compute.", s), bytes, e.M.Params.PackBW,
			func() { compute(s) }))
	}
	return done
}

// computeName labels a subdomain's compute kernel for the op trace. Only
// the trace hook reads kernel names, so without one none is built.
func (e *Exchanger) computeName(prefix string, s *Sub) string {
	if e.RT.OnOp == nil {
		return ""
	}
	return fmt.Sprintf("%s%v", prefix, s.Global)
}

func (e *Exchanger) sendDutiesOf(rank int) []*Plan {
	if e.sendDuties == nil {
		e.buildDuties()
	}
	return e.sendDuties[rank]
}

func (e *Exchanger) recvDutiesOf(rank int) []*Plan {
	if e.recvDuties == nil {
		e.buildDuties()
	}
	return e.recvDuties[rank]
}

func (e *Exchanger) buildDuties() {
	e.sendDuties = make([][]*Plan, e.W.Size())
	e.recvDuties = make([][]*Plan, e.W.Size())
	for _, pl := range e.Plans {
		e.sendDuties[pl.Src.Rank] = append(e.sendDuties[pl.Src.Rank], pl)
		switch pl.Method {
		case MethodKernel, MethodPeer:
			// receive side handled by the sender's process
		default:
			e.recvDuties[pl.Dst.Rank] = append(e.recvDuties[pl.Dst.Rank], pl)
		}
	}
}

// Run executes the measurement protocol of §IV-A for the given number of
// exchange iterations: per iteration, barrier, exchange, and an allreduce of
// the per-rank wall time; the maximum across ranks is the iteration's
// reported time.
func (e *Exchanger) Run(iterations int) *Stats {
	return e.RunWithCompute(iterations, nil)
}

// RunWithCompute interleaves a per-subdomain compute kernel after each
// exchange (the application's stencil update). Only the exchange portion is
// timed, matching the paper's methodology.
//
// With Options.CheckpointEvery > 0 the run additionally takes periodic
// checkpoints and survives permanent GPU/rank loss by rolling every rank
// back to the last checkpoint epoch (see recover.go).
func (e *Exchanger) RunWithCompute(iterations int, compute func(*Sub)) *Stats {
	if iterations < 1 {
		panic("exchange: Run with no iterations")
	}
	times := make([]sim.Time, iterations)
	ar := mpi.NewAllreducer(e.W)
	tel := e.Opts.Telemetry
	var runSpan *telemetry.Span
	if tel != nil {
		runSpan = tel.StartSpan("run", nil, e.Eng.Now())
	}
	// The coordinator runs the per-iteration bookkeeping: timing, telemetry,
	// adaptation, and checkpoint/failure detection. It starts as the lowest
	// active rank and is re-elected by recovery when it dies.
	e.coordRank = -1
	for r := 0; r < e.W.Size(); r++ {
		if !e.W.Deactivated(r) {
			e.coordRank = r
			break
		}
	}
	if e.coordRank < 0 {
		panic("exchange: no active rank left to run")
	}
	var rc *recovery
	if e.Opts.CheckpointEvery > 0 {
		rc = newRecovery(e, iterations, runSpan)
		e.rec = rc
	}

	// safePoint runs the coordinator's per-iteration duties. Every rank has
	// passed the timing allreduce but none can leave the next loop-top
	// barrier until the coordinator enters it, so no send region is re-packed
	// while its quadrant is checked, re-specialized, or checkpointed.
	// Verification runs first: adaptation and checkpoints must see (and
	// snapshot) repaired halos. led is the iteration's overlap ledger, nil in
	// barrier mode.
	safePoint := func(p *sim.Proc, it int, t0, maxDt sim.Time, led *overlapIterState) {
		times[it] = maxDt
		if tel != nil {
			// The coordinator records the iteration on everyone's behalf:
			// the span covers [t0, t0 + max-across-ranks], the same quantity
			// the paper reports per iteration.
			feature := telemetry.FeatureBaseline
			if led != nil {
				feature = telemetry.FeatureOverlap
			}
			sp := tel.StartSpanFeature("exchange", runSpan, t0, feature)
			sp.End(t0+maxDt, telemetry.L("iter", strconv.Itoa(it)))
			tel.Counter("exchange_iterations_total").Inc()
			tel.Histogram("exchange_iteration_seconds", telemetry.SecondsBuckets).Observe(maxDt)
		}
		if led != nil {
			// The verify pump checked each quadrant as it arrived. Every
			// rank took its reference to the ledger at body start (the
			// allreduce proves it); drop it so long runs stay bounded.
			led.allVerified.Wait(p)
			delete(e.overlapStates, it)
		} else if e.verifying() {
			e.verifyRounds(p, it, e.verifier.scan)
		}
		if e.Opts.Adaptive {
			if tel != nil {
				asp := tel.StartSpanFeature("adapt", runSpan, e.Eng.Now(), telemetry.FeatureAdapt)
				e.adaptTick(p)
				asp.End(e.Eng.Now())
			} else {
				e.adaptTick(p)
			}
		}
		if rc != nil {
			rc.atSafePoint(it)
		}
		e.pollPreempt()
		// Every rank's machines of the iteration finished before the
		// allreduce, and verification, adaptation and checkpoints are done
		// with its rendezvous state, so long runs stay bounded.
		e.dropRendezvous(it)
	}

	// body is one iteration from one rank's perspective: exchange, timing
	// allreduce, the coordinator's safe point, then compute. Overlap mode
	// launches compute between issuing and draining the exchange
	// (overlap.go); barrier mode launches it after the safe point.
	body := func(p *sim.Proc, rank, it int) {
		var led *overlapIterState
		if e.Opts.Overlap {
			led = e.overlapState(it)
		}
		t0 := e.W.Wtime()
		var computeDone []*sim.Signal
		if e.Opts.NoOverlap {
			e.runIterationSerial(p, rank, it)
		} else {
			d := e.issue(p, e.recvDutiesOf(rank), e.sendDutiesOf(rank), it, led)
			if led != nil && compute != nil {
				computeDone = e.launchOverlapCompute(p, rank, led, compute)
			}
			d.drain(p)
		}
		maxDt := ar.MaxFloat(p, e.W.Wtime()-t0)
		if rank == e.coordRank {
			safePoint(p, it, t0, maxDt, led)
		}
		if led == nil && compute != nil {
			computeDone = e.launchCompute(p, rank, compute)
		}
		sim.WaitAll(p, computeDone...)
	}

	for r := 0; r < e.W.Size(); r++ {
		if e.W.Deactivated(r) {
			continue
		}
		rank := r
		// Every loop-top barrier doubles as the recovery line when the run
		// can recover: on a pending plan, dead ranks exit the job, the
		// (re-elected) coordinator performs the rollback, and all survivors
		// resume from the checkpoint epoch's iteration. Checkpoints run as a
		// collective between the recovery line and the iteration body: the
		// schedule is a pure function of the iteration number, so every rank
		// knows one is due; the coordinator drives the D2H flows while
		// everyone else parks at the closing barrier, which guarantees the
		// snapshot is taken at a globally quiescent instant (epoch 0, before
		// the first iteration, snapshots the pristine initial state). A
		// recovering run passes one more recovery line after its last
		// iteration; without recovery the loop makes exactly the barrier,
		// stop check and body calls of each iteration.
		e.Eng.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
			it, lastHandled := 0, 0
			for rc != nil || it < iterations {
				e.W.Barrier(p)
				if e.stopped {
					return
				}
				if rc != nil {
					exit, resume := rc.atRecoveryLine(p, rank, &lastHandled)
					if exit {
						return
					}
					if resume >= 0 {
						it = resume
					}
					if it >= iterations {
						return
					}
					if rc.checkpointDue(it) {
						if rank == e.coordRank {
							rc.checkpoint(p, it)
						}
						e.W.Barrier(p)
					}
				}
				body(p, rank, it)
				it++
			}
		})
	}
	e.Eng.Run()
	if runSpan != nil {
		runSpan.End(e.Eng.Now())
	}
	// Iteration numbers restart at zero on the next Run: start it with no
	// rendezvous state left over (each safe point already dropped its own).
	e.slots = make(map[slotKey]*sim.Signal)
	e.groupStates = make(map[slotKey]*groupState)
	e.overlapStates = make(map[int]*overlapIterState)
	return newStats(e, times)
}
