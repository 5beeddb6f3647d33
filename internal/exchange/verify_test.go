package exchange

import (
	"strings"
	"testing"

	"github.com/nodeaware/stencil/internal/fault"
	"github.com/nodeaware/stencil/internal/halo"
	"github.com/nodeaware/stencil/internal/part"
	"github.com/nodeaware/stencil/internal/sim"
)

// lossyOpts is the 2-node configuration the delivery-fault tests share:
// real data so corruption flips observable bytes, full capability ladder so
// every method class appears.
func lossyOpts(cudaAware bool) Options {
	o := smallOpts(2, CapsAll(), cudaAware)
	o.Nodes = 2
	o.Domain = part.Dim3{X: 24, Y: 24, Z: 12}
	return o
}

// TestVerifyRepairsCorruptedHalos runs a heavily corrupting network with a
// tight retransmission budget, so deliveries regularly exhaust their attempt
// cap and land compromised. End-to-end verification must detect and
// selectively re-exchange every damaged quadrant: the final halos are
// byte-identical to a fault-free run's.
func TestVerifyRepairsCorruptedHalos(t *testing.T) {
	sc := &fault.Scenario{Name: "lossy", Seed: 11}
	for n := 0; n < 2; n++ {
		sc.LossyNIC(0, n, 0.1, 0.5, 0.1)
	}
	o := lossyOpts(false)
	o.SendRetries = 2
	o.Fault = sc
	e, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if !e.W.Reliable || e.W.DeliverySeed != 11 {
		t.Fatal("delivery faults did not arm the reliable envelope with the scenario seed")
	}
	if e.verifier == nil {
		t.Fatal("delivery faults did not enable end-to-end verification")
	}
	fillGlobal(e)
	st := e.Run(4)
	if st.Delivery.Corrupts == 0 || st.Delivery.Drops == 0 {
		t.Errorf("faults not exercised: %+v", st.Delivery)
	}
	if st.Delivery.Exhausted == 0 {
		t.Error("no delivery exhausted its attempt cap; verification never load-bearing")
	}
	if st.ReExchanges == 0 {
		t.Error("no quadrants were re-exchanged")
	}
	if st.Delivery.Retransmits == 0 {
		t.Error("no retransmissions under 10% drop")
	}
	verifyHalos(t, e)
}

// TestVerifyCleanNetworkNoRepairs: with the envelope forced on over a clean
// network, verification finds nothing and the protocol never retransmits.
func TestVerifyCleanNetworkNoRepairs(t *testing.T) {
	o := lossyOpts(false)
	o.Reliable = true
	o.VerifyExchange = true
	e, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	fillGlobal(e)
	st := e.Run(3)
	if st.Delivery.Messages == 0 {
		t.Error("reliable envelope saw no messages")
	}
	if st.Delivery.Retransmits != 0 || st.Delivery.Nacks != 0 || st.ReExchanges != 0 {
		t.Errorf("clean network produced repairs: %+v re-exchanges %d", st.Delivery, st.ReExchanges)
	}
	verifyHalos(t, e)
}

// TestVerifyCleanNetworkNoRepairsOverlap is the overlap-mode twin with two
// payload workers: the pipelined verify pump, fed by checksums the pack
// payloads record on the workers, must find nothing to repair either.
func TestVerifyCleanNetworkNoRepairsOverlap(t *testing.T) {
	o := lossyOpts(false)
	o.Reliable = true
	o.VerifyExchange = true
	o.Overlap = true
	o.Workers = 2
	e, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	fillGlobal(e)
	st := e.RunWithCompute(3, func(*Sub) {})
	if st.Delivery.Messages == 0 {
		t.Error("reliable envelope saw no messages")
	}
	if st.Delivery.Retransmits != 0 || st.Delivery.Nacks != 0 || st.VerifyRounds != 0 {
		t.Errorf("clean network produced repairs: %+v re-exchanges %d rounds %d",
			st.Delivery, st.ReExchanges, st.VerifyRounds)
	}
	verifyHalos(t, e)
}

// TestQuadrantBadComparesSentWithLanded pins the verifier's contract: a
// quadrant is bad when the bytes that landed differ from the bytes the
// sender packed. Damage to the landed receive region is caught; a send
// region changed after its pack is not, because what was sent still matches
// what landed. Both MPI-coupled pack paths (STAGED and CUDA-aware) record
// the sender's checksum.
func TestQuadrantBadComparesSentWithLanded(t *testing.T) {
	for _, cudaAware := range []bool{false, true} {
		o := lossyOpts(cudaAware)
		o.Reliable = true
		o.VerifyExchange = true
		e, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		fillGlobal(e)
		e.Run(2)
		inter := 0
		for _, pl := range e.Plans {
			if pl.Src.NodeID == pl.Dst.NodeID {
				continue
			}
			inter++
			if e.verifier.quadrantBad(pl) {
				t.Fatalf("cuda-aware=%v: plan %d bad after a clean run", cudaAware, pl.ID)
			}
			flip := func(d *halo.Domain, reg halo.Region) func() {
				b := d.At(d.Quantities-1, reg.Hi.X-1, reg.Hi.Y-1, reg.Hi.Z-1)
				b[0] ^= 0x5a
				return func() { b[0] ^= 0x5a }
			}
			undo := flip(pl.Dst.Dom, pl.Dst.Dom.RecvRegion(neg(pl.Dir)))
			if !e.verifier.quadrantBad(pl) {
				t.Errorf("cuda-aware=%v: plan %d: flipped landed byte not detected", cudaAware, pl.ID)
			}
			undo()
			undo = flip(pl.Src.Dom, pl.Src.Dom.SendRegion(pl.Dir))
			if e.verifier.quadrantBad(pl) {
				t.Errorf("cuda-aware=%v: plan %d: source changed after its pack reported bad", cudaAware, pl.ID)
			}
			undo()
		}
		if inter == 0 {
			t.Fatalf("cuda-aware=%v: no inter-node plans; weak test", cudaAware)
		}
	}
}

// TestLossyDeterminism: the same lossy configuration is bit-identical across
// reruns — iteration times, protocol counters, and every halo byte.
func TestLossyDeterminism(t *testing.T) {
	run := func() (*Exchanger, *Stats) {
		sc := &fault.Scenario{Name: "lossy", Seed: 3}
		for n := 0; n < 2; n++ {
			sc.LossyNIC(0, n, 0.15, 0.15, 0.15)
		}
		o := lossyOpts(true)
		o.Fault = sc
		e, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		fillGlobal(e)
		return e, e.Run(3)
	}
	e1, s1 := run()
	e2, s2 := run()
	if s1.Delivery != s2.Delivery {
		t.Errorf("protocol counters differ: %+v vs %+v", s1.Delivery, s2.Delivery)
	}
	for i := range s1.Iterations {
		if s1.Iterations[i] != s2.Iterations[i] {
			t.Errorf("iteration %d time differs: %v vs %v", i, s1.Iterations[i], s2.Iterations[i])
		}
	}
	for i := range e1.Subs {
		if e1.Subs[i].Dom.Fingerprint() != e2.Subs[i].Dom.Fingerprint() {
			t.Errorf("sub %d data differs across reruns", i)
		}
	}
	if s1.Delivery.Drops+s1.Delivery.Corrupts+s1.Delivery.Dups == 0 {
		t.Error("scenario exercised no faults; weak test")
	}
}

// TestQuarantineHysteresis is the flap acceptance scenario: a periodically
// flapping NIC is quarantined after its health score crosses the enter
// threshold, method selection then holds the demoted plans stable for the
// whole quarantine window (no thrash while the link toggles), and the link
// is re-admitted — with one promotion — only after the clean window.
func TestQuarantineHysteresis(t *testing.T) {
	// Probe run measures the fault-free iteration cadence so the flap period
	// can track the monitor's tick rate.
	probe, err := New(lossyOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	fillGlobal(probe)
	iterTime := probe.Run(4).Mean()

	sc := (&fault.Scenario{Name: "flap"}).FlapNICPeriodic(iterTime/2, 1, iterTime, 0.5, 6)
	o := lossyOpts(true)
	o.Adaptive = true
	o.QuarantineTicks = 3
	o.Fault = sc
	e, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if e.health == nil {
		t.Fatal("flap scenario did not enable the health monitor")
	}
	fillGlobal(e)
	st := e.Run(24)

	if st.QuarantineEnters == 0 {
		t.Fatal("flapping NIC never quarantined")
	}
	if st.QuarantineExits == 0 {
		t.Error("quarantined NIC never re-admitted after the clean window")
	}

	// The quarantine window spans first enter to last exit. Inside it the
	// flap keeps toggling the link, but selection must not move any plan:
	// the only re-specializations are the demotion at enter and the
	// promotion at exit.
	enterAt, exitAt := sim.Time(-1), sim.Time(-1)
	for _, r := range st.AdaptEvents {
		if r.PlanID >= 0 {
			continue
		}
		if strings.Contains(r.Reason, "quarantine enter") && enterAt < 0 {
			enterAt = r.At
		}
		if strings.Contains(r.Reason, "quarantine exit") {
			exitAt = r.At
		}
	}
	if enterAt < 0 {
		t.Fatal("no quarantine enter record in the adaptation log")
	}
	for _, r := range st.AdaptEvents {
		if r.PlanID < 0 || r.At <= enterAt {
			continue
		}
		if exitAt < 0 || r.At < exitAt {
			t.Errorf("plan %d re-specialized inside the quarantine window (t=%g): %s", r.PlanID, r.At, r)
		}
	}

	// Demotion and promotion both happened for the NIC-crossing plans.
	demotes, promotes := 0, 0
	for _, r := range st.AdaptEvents {
		if r.PlanID < 0 {
			continue
		}
		if r.From == MethodCudaAware && r.To == MethodStaged {
			demotes++
		}
		if r.From == MethodStaged && r.To == MethodCudaAware {
			promotes++
		}
	}
	if demotes == 0 {
		t.Error("no CUDAAWAREMPI plan demoted under the flapping NIC")
	}
	if st.QuarantineExits > 0 && promotes == 0 {
		t.Error("no plan promoted back after quarantine exit")
	}
	verifyHalos(t, e)
}
