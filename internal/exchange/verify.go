package exchange

import (
	"fmt"

	"github.com/nodeaware/stencil/internal/cudart"
	"github.com/nodeaware/stencil/internal/sim"
	"github.com/nodeaware/stencil/internal/telemetry"
)

// End-to-end halo verification (the backstop above the MPI reliable-delivery
// envelope). After each exchange, at the coordinator's safe point, every
// halo quadrant that crossed the inter-node wire is checksummed on both
// ends: the sender's send region against the receiver's landed receive
// region, hashed in the same row order Pack serializes. Quadrants that
// mismatch — a delivery that exhausted its retransmission budget with a
// corrupt payload — are selectively re-exchanged through the ordinary plan
// machinery (and the envelope again), so only the damaged bytes are resent.
// After verifyMaxRounds of bad luck the remaining quadrants are repaired
// out-of-band (a direct copy, modelling a reliable side channel), so no
// corrupted quadrant ever survives an iteration, even at loss probability 1.

// verifyMaxRounds caps selective re-exchange rounds per iteration before the
// out-of-band repair takes over.
const verifyMaxRounds = 8

// verifier holds the end-to-end verification state and counters.
type verifier struct {
	e           *Exchanger
	reexchanges int // quadrants selectively re-exchanged
	rounds      int // repair rounds that found at least one bad quadrant
	forced      int // quadrants repaired out-of-band after the round cap
	nextKey     int // per-round iteration keys, disjoint from real iterations
}

func newVerifier(e *Exchanger) *verifier {
	return &verifier{e: e, nextKey: 1 << 30}
}

// quadrantBad reports whether a plan's landed halo differs from what its
// source holds. Only inter-node plans can be damaged: intra-node methods
// never cross a lossy wire (loss is sampled by the reliable envelope, which
// wraps inter-node messages only).
func (v *verifier) quadrantBad(pl *Plan) bool {
	want := pl.Src.Dom.RegionChecksum(pl.Src.Dom.SendRegion(pl.Dir))
	got := pl.Dst.Dom.RegionChecksum(pl.Dst.Dom.RecvRegion(neg(pl.Dir)))
	return want != got
}

// scan returns the damaged inter-node plans, expanded to whole aggregate
// groups (an aggregated message is one MPI send; re-exchanging it re-stages
// every member plan).
func (v *verifier) scan() []*Plan {
	e := v.e
	var bad []*Plan
	inBad := make(map[int]bool)
	for _, pl := range e.Plans {
		if pl.Src.NodeID == pl.Dst.NodeID || inBad[pl.ID] {
			continue
		}
		if !v.quadrantBad(pl) {
			continue
		}
		if g := pl.group; g != nil {
			for _, gp := range g.plans {
				if !inBad[gp.ID] {
					inBad[gp.ID] = true
					bad = append(bad, gp)
				}
			}
			continue
		}
		inBad[pl.ID] = true
		bad = append(bad, pl)
	}
	return bad
}

// forceRepair copies the quadrant directly, bypassing the wire: pack from
// the source region, unpack into the destination halo.
func (v *verifier) forceRepair(pl *Plan) {
	if tel := v.e.Opts.Telemetry; tel != nil {
		tel.AttributeAlloc(telemetry.FeatureVerify, pl.Bytes)
	}
	buf := make([]byte, pl.Bytes)
	pl.Src.Dom.Pack(buf, pl.Dir)
	pl.Dst.Dom.Unpack(buf, neg(pl.Dir))
}

// verifyRounds checks and repairs quadrants in rounds until find reports
// none damaged. Barrier mode runs it on the coordinator at the safe point
// with a scan of every plan: every rank has passed the timing allreduce and
// none can leave the next barrier, and compute kernels are held at a barrier
// until the coordinator finishes, so nothing mutates the checksummed regions.
// Overlap mode's verify pump runs it per plan as the plan arrives. Each round
// re-exchanges the damaged quadrants selectively; from round
// verifyMaxRounds on they are repaired out-of-band instead.
func (e *Exchanger) verifyRounds(p *sim.Proc, iter int, find func() []*Plan) {
	v := e.verifier
	tel := e.Opts.Telemetry
	if tel != nil {
		// Ledger-only attribution (no span, no event): the checksum
		// epsilons, re-exchange rounds and out-of-band repairs are virtual
		// time the verify feature added.
		t0 := e.Eng.Now()
		defer func() { tel.AttributeSeconds(telemetry.FeatureVerify, e.Eng.Now()-t0) }()
	}
	// Deferred payload commits (unpacks, checkpoint snapshots) flush when
	// their instant ends; crossing an instant boundary before each checksum
	// pass guarantees the reads observe fully landed bytes under parallel
	// payload workers.
	eps := e.M.Params.MPIInterLatency
	for round := 0; ; round++ {
		p.Sleep(eps)
		bad := find()
		if len(bad) == 0 {
			return
		}
		v.rounds++
		now := e.Eng.Now()
		if round >= verifyMaxRounds {
			for _, pl := range bad {
				v.forceRepair(pl)
				v.forced++
			}
			e.Eng.Tracef("verify: iter %d round %d: %d quadrants repaired out-of-band", iter, round, len(bad))
			if tel != nil {
				tel.VerifyRound(now, iter, round, len(bad), true)
			}
			continue // the next pass confirms the repair and returns
		}
		if tel != nil {
			tel.VerifyRound(now, iter, round, len(bad), false)
		}
		e.Eng.Tracef("verify: iter %d round %d: re-exchanging %d quadrants", iter, round, len(bad))
		// Selective re-exchange through the ordinary plan machinery under a
		// fresh iteration key: group rendezvous state must not collide with
		// real iterations, and no key this high has an overlap ledger, so
		// every plan takes its classic (non-channel) path.
		key := v.nextKey
		v.nextKey++
		e.issue(p, bad, bad, key, nil).drain(p)
		v.reexchanges += len(bad)
		if e.RT.OnOp != nil {
			end := e.Eng.Now()
			for _, pl := range bad {
				e.RT.Record(cudart.OpRecord{Kind: cudart.OpReExchange,
					Name: fmt.Sprintf("reex.p%d", pl.ID), Device: -1, Stream: "verify",
					Start: now, End: end, Bytes: pl.Bytes})
			}
		}
	}
}
