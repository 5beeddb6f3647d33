package exchange

import (
	"fmt"

	"github.com/nodeaware/stencil/internal/sim"
)

// Compute/communication overlap via persistent exchange plans (Options.
// Overlap).
//
// Barrier mode serializes each iteration: exchange everything, verify
// everything at a global safe point, then compute everything. Overlap mode
// replaces the global safe point with per-quadrant readiness:
//
//   - Each iteration's transfer plan is registered once as an
//     overlapIterState: a per-plan arrival fan-in (all of the plan's state
//     machines completed), a per-plan verified signal, and a per-subdomain
//     readiness fan-in counting exactly the plans whose halos the
//     subdomain's border compute reads (Dst plans) or whose send regions it
//     overwrites (Src plans).
//   - Inter-node STAGED messages ride persistent MPI channels
//     (mpi.Channel): the receiver is released at payload *acceptance*, not
//     at the sender's ACK, and the ACK tail drains in the background. The
//     channel's sequence state survives across iterations and recovery plan
//     rebuilds, so fault draws per channel depend only on that channel's
//     own message index — the property that keeps issue-order-shuffled runs
//     deterministic.
//   - Interior ("core") compute — the interior shrunk by Radius, which
//     reads no halo cell — is launched while halos are still in flight. The
//     border kernel is pre-launched behind it on the same stream, gated on
//     the subdomain's readiness signal. The core kernel models timing only;
//     the real update payload runs once, in the border kernel, so the data
//     trajectory is the barrier mode's by construction.
//   - Verification is pipelined: a per-iteration pump process checksums
//     each inter-node quadrant as its plan's arrival fan-in fires,
//     re-exchanging selectively, instead of scanning the world at the
//     barrier. The coordinator still waits for allVerified before
//     adaptation and checkpoints — both must see repaired halos — and no
//     rank can leave the next loop-top barrier before the coordinator, so
//     no send region is re-packed while its quadrant is in flight.
//
// Determinism argument (see DESIGN.md §11): within a mode the engine is
// deterministic, so reruns and worker-count changes are byte-identical.
// Across modes the final domain and halo bytes are identical because each
// subdomain's update runs exactly once per iteration, after exactly the
// same halo bytes have (verifiably) landed — the pipeline moves when work
// happens, never what it computes.

// overlapIterState is one iteration's readiness ledger.
type overlapIterState struct {
	iter     int
	accepted map[int]*sim.Signal // per plan: channel payload accepted at the receiver
	arrival  map[int]*sim.Fanin  // per plan: all of its state machines completed
	verified map[int]*sim.Signal // per plan: quadrant verified (== arrival when not verifying)
	ready    map[*Sub]*sim.Fanin // per sub: border compute may run
	// allVerified fires when every plan of the iteration is verified; the
	// coordinator's per-quadrant safe point.
	allVerified *sim.Fanin
}

// machineCount is the number of state machines a plan's exchange spawns
// across all ranks: sender-only methods run one, everything else a sender
// and a receiver machine.
func machineCount(pl *Plan) int {
	switch pl.Method {
	case MethodKernel, MethodPeer:
		return 1
	default:
		return 2
	}
}

// overlapState returns the iteration's readiness ledger, building it — and
// spawning its verification pump — on first touch. The first rank to enter
// the iteration body builds it; plan methods cannot change mid-iteration
// (adaptation runs at the coordinator's safe point, strictly before the
// next iteration's first touch), so the registered machine counts match
// what the ranks drive.
func (e *Exchanger) overlapState(iter int) *overlapIterState {
	if st, ok := e.overlapStates[iter]; ok {
		return st
	}
	st := &overlapIterState{
		iter:     iter,
		accepted: make(map[int]*sim.Signal),
		arrival:  make(map[int]*sim.Fanin),
		verified: make(map[int]*sim.Signal),
		ready:    make(map[*Sub]*sim.Fanin),
	}
	verifying := e.verifying()
	var pump *verifyPump
	if verifying {
		pump = &verifyPump{e: e, st: st}
	}
	for _, pl := range e.Plans {
		st.arrival[pl.ID] = sim.NewFanin(e.Eng, "overlap.arrival", machineCount(pl))
		st.verified[pl.ID] = sim.NewSignal(e.Eng, "overlap.verified")
	}
	// A subdomain's border compute reads its halos (filled by Dst plans) and
	// overwrites its send regions (read by Src plans, including verification
	// re-exchanges), so it waits for both sets; self-plans count once.
	counts := make(map[*Sub]int)
	for _, pl := range e.Plans {
		counts[pl.Src]++
		if pl.Dst != pl.Src {
			counts[pl.Dst]++
		}
	}
	for _, s := range e.Subs {
		st.ready[s] = sim.NewFanin(e.Eng, "overlap.ready", counts[s])
	}
	st.allVerified = sim.NewFanin(e.Eng, "overlap.allverified", len(e.Plans))
	for _, pl := range e.Plans {
		pl := pl
		ver := st.verified[pl.ID]
		ver.OnFire(st.allVerified.Done)
		ver.OnFire(st.ready[pl.Src].Done)
		if pl.Dst != pl.Src {
			ver.OnFire(st.ready[pl.Dst].Done)
		}
		if verifying && pl.Src.NodeID != pl.Dst.NodeID {
			st.arrival[pl.ID].Sig().OnFire(func() { pump.enqueue(pl) })
		} else {
			// Intra-node plans never cross a lossy wire (and time-only runs
			// have nothing to checksum): arrival is verification.
			st.arrival[pl.ID].Sig().OnFire(ver.Fire)
		}
	}
	if pump != nil {
		for _, pl := range e.Plans {
			if pl.Src.NodeID != pl.Dst.NodeID {
				pump.pending++
			}
		}
		e.Eng.Spawn(fmt.Sprintf("verify.i%d", iter), pump.run)
	}
	e.overlapStates[iter] = st
	return st
}

// acceptedOf returns the plan's channel-acceptance signal, created by
// whichever side touches it first.
func (st *overlapIterState) acceptedOf(e *Exchanger, pl *Plan) *sim.Signal {
	if s, ok := st.accepted[pl.ID]; ok {
		return s
	}
	s := sim.NewSignal(e.Eng, "overlap.accepted")
	st.accepted[pl.ID] = s
	return s
}

// channeled reports whether a STAGED plan rides its persistent channel: an
// inter-node plan of an iteration with an overlap ledger (aggregated plans
// never do; Overlap rejects AggregateRemote).
func (st *overlapIterState) channeled(pl *Plan) bool {
	return st != nil && pl.Src.NodeID != pl.Dst.NodeID
}

// verifyPump is the pipelined verifier for one iteration: quadrants are
// checksummed as their plans' arrival fan-ins fire, not at a global scan.
// Each runs barrier mode's round loop (verifyRounds), so counters, round
// cap, out-of-band repair, re-exchange and Stats reporting are shared.
type verifyPump struct {
	e       *Exchanger
	st      *overlapIterState
	gate    *sim.Gate
	queue   []*Plan
	pending int // inter-node plans not yet verified
}

// enqueue is called in event context when a plan's arrival fan-in fires.
func (pump *verifyPump) enqueue(pl *Plan) {
	pump.queue = append(pump.queue, pl)
	if pump.gate != nil {
		pump.gate.Open()
	}
}

func (pump *verifyPump) run(vp *sim.Proc) {
	pump.gate = sim.NewGate(vp)
	for pump.pending > 0 {
		if len(pump.queue) == 0 {
			pump.gate.Await()
			continue
		}
		pl := pump.queue[0]
		pump.queue = pump.queue[1:]
		pump.verifyPlan(vp, pl)
	}
}

// verifyPlan drives one quadrant to verified through the shared round loop.
// The checksummed regions cannot mutate under the scan: both subdomains'
// border kernels are gated on this very plan's verified signal. Pump time
// overlaps compute by design, so its verify attribution is inclusive
// span-seconds, not critical-path time.
func (pump *verifyPump) verifyPlan(vp *sim.Proc, pl *Plan) {
	e := pump.e
	bad := []*Plan{pl}
	e.verifyRounds(vp, pump.st.iter, func() []*Plan {
		if e.verifier.quadrantBad(pl) {
			return bad
		}
		return nil
	})
	pump.pending--
	pump.st.verified[pl.ID].Fire()
}

// launchOverlapCompute launches the rank's compute while its halos are still
// in flight. The core kernel models the halo-independent interior update;
// the border kernel behind it carries the real update payload, gated on the
// subdomain's readiness signal, so no compute observes a border cell before
// its quadrants' verified arrival. Ownership is re-read every iteration (a
// recovery migration may move a subdomain).
func (e *Exchanger) launchOverlapCompute(p *sim.Proc, rank int, st *overlapIterState, compute func(*Sub)) []*sim.Signal {
	var done []*sim.Signal
	for _, s := range e.Subs {
		if s.Rank != rank {
			continue
		}
		s := s
		if cb := s.Dom.CoreBytes(); cb > 0 {
			e.RT.LaunchCost(p)
			done = append(done, s.kernelStream.Kernel(
				e.computeName("compute.core.", s), cb, e.M.Params.PackBW,
				func() {}))
		}
		e.RT.LaunchCost(p)
		done = append(done, s.kernelStream.Kernel(
			e.computeName("compute.border.", s), s.Dom.BorderBytes(), e.M.Params.PackBW,
			func() { compute(s) }, st.ready[s].Sig()))
	}
	return done
}

// pollPreempt runs on the coordinator at its safe point; a true from
// Options.Preempt latches the stop flag every rank checks at the next
// loop-top barrier.
func (e *Exchanger) pollPreempt() {
	if e.stopped || e.Opts.Preempt == nil {
		return
	}
	e.stopped = e.Opts.Preempt()
}

// Preempted reports whether a run was stopped early by Options.Preempt.
func (e *Exchanger) Preempted() bool { return e.stopped }
