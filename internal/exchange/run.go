package exchange

import (
	"fmt"
	"strconv"

	"github.com/nodeaware/stencil/internal/mpi"
	"github.com/nodeaware/stencil/internal/sim"
	"github.com/nodeaware/stencil/internal/telemetry"
)

// step is one state of a sender/receiver state machine (§III-D): when sig
// fires, next runs on the owning rank's CPU (charging its costs) and returns
// the successor state, or nil when the machine is done.
type step struct {
	sig  *sim.Signal
	next func(p *sim.Proc) *step
}

// senderSteps issues the send side of a plan and returns the state machines
// the rank must drive to completion. Pure-CUDA methods return a single
// terminal step (their chain lives entirely on streams); MPI-coupled methods
// return multi-state machines. led is the overlap ledger of the iteration
// being driven, nil in barrier mode and for verifier re-exchanges.
func (e *Exchanger) senderSteps(p *sim.Proc, pl *Plan, iter int, led *overlapIterState) []*step {
	rt := e.RT
	nm := pl.opNames()
	switch pl.Method {
	case MethodKernel:
		// One kernel moves the wrapped halo inside device memory; no pack
		// or unpack (lowest-overhead method).
		rt.LaunchCost(p)
		done := pl.Src.kernelStream.Kernel(
			nm.kernelEx, pl.Bytes, e.M.Params.PackBW,
			func() { pl.Src.Dom.SelfExchange(pl.Dir) })
		return []*step{{sig: done}}

	case MethodPeer:
		// pack -> cudaMemcpyPeerAsync -> unpack; the whole chain is CUDA
		// ops, ordered by streams and an event dependency.
		rt.LaunchCost(p)
		pl.sendStream.Kernel(nm.pack, pl.Bytes, e.M.Params.PackBW,
			func() { pl.Src.Dom.Pack(pl.devSend.Data(), pl.Dir) })
		rt.IssueCost(p)
		cp := pl.sendStream.MemcpyPeerAsync(nm.peerCp,
			pl.devRecv, 0, pl.devSend, 0, pl.Bytes)
		rt.LaunchCost(p)
		up := pl.recvStream.Kernel(nm.unpack, pl.Bytes, e.M.Params.PackBW,
			func() { pl.Dst.Dom.Unpack(pl.devRecv.Data(), neg(pl.Dir)) }, cp)
		return []*step{{sig: up}}

	case MethodColocated:
		// The destination buffer was IPC-opened at setup; the copy goes
		// straight into the receiving rank's device memory and a shared
		// event (the slot) tells the receiver it landed.
		slot := e.slot(pl.ID, iter)
		rt.LaunchCost(p)
		pl.sendStream.Kernel(nm.pack, pl.Bytes, e.M.Params.PackBW,
			func() { pl.Src.Dom.Pack(pl.devSend.Data(), pl.Dir) })
		rt.IssueCost(p)
		cp := pl.sendStream.MemcpyPeerAsync(nm.coloCp,
			pl.devRecv, 0, pl.devSend, 0, pl.Bytes)
		cp.OnFire(slot.Fire)
		return []*step{{sig: cp}}

	case MethodStaged:
		// pack -> D2H on the stream; once staged, the CPU hands the host
		// buffer to MPI_Isend (second state). Aggregated plans stage into
		// the rank pair's shared buffer; the last staging triggers one
		// combined Isend.
		rt.LaunchCost(p)
		pl.sendStream.Kernel(nm.pack, pl.Bytes, e.M.Params.PackBW, e.packPayload(pl))
		rt.IssueCost(p)
		if g := pl.group; g != nil {
			d2h := pl.sendStream.MemcpyAsync(nm.d2h,
				g.hostSend, pl.aggOffset, pl.devSend, 0, pl.Bytes)
			return []*step{{sig: d2h, next: func(p *sim.Proc) *step {
				gs := e.groupStateOf(g, iter)
				gs.remaining--
				if gs.remaining > 0 {
					// Only the final staging carries the chain forward;
					// waiting here per-plan would deadlock the serial
					// (NoOverlap) driver before the group ever sends.
					return nil
				}
				req := e.W.Rank(g.srcRank).Isend(g.dstRank, g.tag, g.hostSend, 0, g.bytes)
				req.Done().OnFire(gs.sendDone.Fire)
				return &step{sig: gs.sendDone}
			}}}
		}
		d2h := pl.sendStream.MemcpyAsync(nm.d2h,
			pl.hostSend, 0, pl.devSend, 0, pl.Bytes)
		if led.channeled(pl) {
			// One Start on the plan's persistent channel; the machine
			// terminates at payload acceptance and the ACK tail drains in
			// the background (the send buffer is not re-read after
			// acceptance — later deliveries of the same sequence number are
			// deduplicated without touching it — and the next iteration's
			// pack cannot start before the coordinator passes this
			// iteration's safe point).
			return []*step{{sig: d2h, next: func(p *sim.Proc) *step {
				acc := led.acceptedOf(e, pl)
				ch := e.W.OpenChannel(e.W.Rank(pl.Src.Rank), e.W.Rank(pl.Dst.Rank), pl.Tag)
				ch.Start(pl.hostSend, 0, pl.hostRecv, 0, pl.Bytes, acc.Fire, func() {})
				return &step{sig: acc}
			}}}
		}
		return []*step{{sig: d2h, next: func(p *sim.Proc) *step {
			req := e.W.Rank(pl.Src.Rank).Isend(pl.Dst.Rank, pl.Tag, pl.hostSend, 0, pl.Bytes)
			return &step{sig: req.Done()}
		}}}

	case MethodCudaAware:
		// pack on the stream; once packed, the device buffer goes straight
		// to MPI (which internally serializes on the default stream).
		rt.LaunchCost(p)
		pack := pl.sendStream.Kernel(nm.pack, pl.Bytes, e.M.Params.PackBW, e.packPayload(pl))
		return []*step{{sig: pack, next: func(p *sim.Proc) *step {
			req := e.W.Rank(pl.Src.Rank).Isend(pl.Dst.Rank, pl.Tag, pl.devSend, 0, pl.Bytes)
			return &step{sig: req.Done()}
		}}}
	}
	panic("exchange: unknown method")
}

// recverSteps issues the receive side of a plan for methods that need one;
// led is as for senderSteps.
func (e *Exchanger) recverSteps(p *sim.Proc, pl *Plan, iter int, led *overlapIterState) []*step {
	rt := e.RT
	nm := pl.opNames()
	switch pl.Method {
	case MethodKernel, MethodPeer:
		return nil // handled entirely by the sender's rank (same process)

	case MethodColocated:
		slot := e.slot(pl.ID, iter)
		if e.Opts.NoOverlap {
			// Serial mode must not pre-enqueue stream work gated on another
			// rank's future copy: a CUDA-aware transfer's device-wide
			// synchronization could then wait on an event that only fires
			// after this rank unblocks — a deadlock. Wait on the CPU
			// instead, then launch the unpack.
			return []*step{{sig: slot, next: func(p *sim.Proc) *step {
				rt.LaunchCost(p)
				up := pl.recvStream.Kernel(nm.unpack, pl.Bytes, e.M.Params.PackBW,
					func() { pl.Dst.Dom.Unpack(pl.devRecv.Data(), neg(pl.Dir)) })
				return &step{sig: up}
			}}}
		}
		// Pre-launch the unpack gated on the shared IPC event; the stream
		// waits, the CPU does not.
		rt.LaunchCost(p)
		up := pl.recvStream.Kernel(nm.unpack, pl.Bytes, e.M.Params.PackBW,
			func() { pl.Dst.Dom.Unpack(pl.devRecv.Data(), neg(pl.Dir)) }, slot)
		return []*step{{sig: up}}

	case MethodStaged:
		if g := pl.group; g != nil {
			gs := e.groupStateOf(g, iter)
			if !gs.recvPosted {
				gs.recvPosted = true
				req := e.W.Rank(g.dstRank).Irecv(g.srcRank, g.tag, g.hostRecv, 0, g.bytes)
				req.Done().OnFire(gs.recvDone.Fire)
			}
			return []*step{{sig: gs.recvDone, next: func(p *sim.Proc) *step {
				rt.IssueCost(p)
				pl.recvStream.MemcpyAsync(nm.h2d,
					pl.devRecv, 0, g.hostRecv, pl.aggOffset, pl.Bytes)
				rt.LaunchCost(p)
				up := pl.recvStream.Kernel(nm.unpack, pl.Bytes, e.M.Params.PackBW,
					func() { pl.Dst.Dom.Unpack(pl.devRecv.Data(), neg(pl.Dir)) })
				return &step{sig: up}
			}}}
		}
		var landed *sim.Signal
		if led.channeled(pl) {
			// Released at the channel's payload acceptance, not at the
			// sender's ACK.
			landed = led.acceptedOf(e, pl)
		} else {
			landed = e.W.Rank(pl.Dst.Rank).Irecv(pl.Src.Rank, pl.Tag, pl.hostRecv, 0, pl.Bytes).Done()
		}
		return []*step{{sig: landed, next: func(p *sim.Proc) *step {
			rt.IssueCost(p)
			pl.recvStream.MemcpyAsync(nm.h2d,
				pl.devRecv, 0, pl.hostRecv, 0, pl.Bytes)
			rt.LaunchCost(p)
			up := pl.recvStream.Kernel(nm.unpack, pl.Bytes, e.M.Params.PackBW,
				func() { pl.Dst.Dom.Unpack(pl.devRecv.Data(), neg(pl.Dir)) })
			return &step{sig: up}
		}}}

	case MethodCudaAware:
		req := e.W.Rank(pl.Dst.Rank).Irecv(pl.Src.Rank, pl.Tag, pl.devRecv, 0, pl.Bytes)
		return []*step{{sig: req.Done(), next: func(p *sim.Proc) *step {
			rt.LaunchCost(p)
			up := pl.recvStream.Kernel(nm.unpack, pl.Bytes, e.M.Params.PackBW,
				func() { pl.Dst.Dom.Unpack(pl.devRecv.Data(), neg(pl.Dir)) })
			return &step{sig: up}
		}}}
	}
	panic("exchange: unknown method")
}

// stepDriver drives a rank's state machines to completion with a ready
// queue: each step registers a single OnFire callback that enqueues it when
// its signal fires, and the rank process parks on one reusable Gate instead
// of re-registering with every outstanding signal per wake (the previous
// WaitAny loop was quadratic in the number of in-flight transfers).
type stepDriver struct {
	gate    *sim.Gate
	pending int // steps whose signal has not fired yet
	ready   []*step
	cursor  int
}

func (d *stepDriver) add(st *step) {
	if st.sig.Fired() {
		d.ready = append(d.ready, st)
		return
	}
	d.pending++
	st.sig.OnFire(func() {
		d.pending--
		d.ready = append(d.ready, st)
		d.gate.Open()
	})
}

// drain advances fired steps in fire order until no machine remains. A
// step's continuation may sleep, which lets further steps fire and extend
// the ready queue mid-scan; the cursor loop picks them up in order.
func (d *stepDriver) drain(p *sim.Proc) {
	for {
		for d.cursor < len(d.ready) {
			st := d.ready[d.cursor]
			d.ready[d.cursor] = nil
			d.cursor++
			if st.next != nil {
				if ns := st.next(p); ns != nil {
					d.add(ns)
				}
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
// loop). With an overlap ledger every machine's completion also counts
// toward its plan's arrival fan-in.
func (e *Exchanger) issue(p *sim.Proc, recvs, sends []*Plan, iter int, led *overlapIterState) *stepDriver {
	d := &stepDriver{gate: sim.NewGate(p)}
	for _, pl := range recvs {
		for _, st := range e.recverSteps(p, pl, iter, led) {
			d.add(led.wrapMachine(pl, st))
		}
	}
	for _, pl := range sends {
		for _, st := range e.senderSteps(p, pl, iter, led) {
			d.add(led.wrapMachine(pl, st))
		}
	}
	return d
}

// runIterationSerial is the NoOverlap ablation: receives are still posted up
// front (MPI matching requires it to avoid deadlock) but every transfer is
// then driven to completion before the next one starts.
func (e *Exchanger) runIterationSerial(p *sim.Proc, rank, iter int) {
	var recvs []*step
	for _, pl := range e.recvDutiesOf(rank) {
		recvs = append(recvs, e.recverSteps(p, pl, iter, nil)...)
	}
	for _, pl := range e.sendDutiesOf(rank) {
		for _, st := range e.senderSteps(p, pl, iter, nil) {
			e.driveToCompletion(p, st)
		}
	}
	for _, st := range recvs {
		e.driveToCompletion(p, st)
	}
}

func (e *Exchanger) driveToCompletion(p *sim.Proc, st *step) {
	for st != nil {
		st.sig.Wait(p)
		if st.next == nil {
			return
		}
		st = st.next(p)
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
			fmt.Sprintf("compute.%v", s.Global), bytes, e.M.Params.PackBW,
			func() { compute(s) }))
	}
	return done
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
	// Free the per-iteration rendezvous state.
	e.slots = make(map[slotKey]*sim.Signal)
	e.groupStates = make(map[slotKey]*groupState)
	e.overlapStates = make(map[int]*overlapIterState)
	return newStats(e, times)
}
