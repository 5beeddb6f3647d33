package fault

import (
	"fmt"
	"strings"
	"testing"

	"github.com/nodeaware/stencil/internal/cudart"
	"github.com/nodeaware/stencil/internal/flownet"
	"github.com/nodeaware/stencil/internal/machine"
	"github.com/nodeaware/stencil/internal/mpi"
	"github.com/nodeaware/stencil/internal/sim"
)

func rig(nodes, ranksPerNode int) (*sim.Engine, *machine.Machine, *cudart.Runtime, *mpi.World) {
	eng := sim.NewEngine()
	m := machine.NewSummit(eng, nodes)
	rt := cudart.NewRuntime(m, false)
	w := mpi.NewWorld(m, rt, ranksPerNode, false)
	return eng, m, rt, w
}

// TestInjectorAppliesAtVirtualTimes: each event kind mutates the machine at
// exactly the scheduled virtual time and the log records it in order.
func TestInjectorAppliesAtVirtualTimes(t *testing.T) {
	eng, m, rt, w := rig(1, 2)
	inj := NewInjector(m, rt, w)
	sc := (&Scenario{Name: "mixed"}).
		DegradeNIC(1, 0, 0.25).
		KillNVLink(2, 0, 0, 1, 0).
		StraggleGPU(3, 0, 4, 2.5, 0)
	if err := inj.Install(sc); err != nil {
		t.Fatal(err)
	}

	node := m.Nodes[0]
	nicOut, nicIn := node.NIC()
	ab, ba := node.NVLinkPair(0, 1)
	checks := []struct {
		at sim.Time
		fn func()
	}{
		{0.5, func() {
			if nicOut.Health() != 1 || ab.Health() != 1 {
				t.Error("faults applied before schedule")
			}
		}},
		{1.5, func() {
			if nicOut.Health() != 0.25 || nicIn.Health() != 0.25 {
				t.Errorf("NIC health at t=1.5: got %g/%g want 0.25", nicOut.Health(), nicIn.Health())
			}
		}},
		{2.5, func() {
			if !ab.Down() || !ba.Down() {
				t.Error("NVLink 0-1 not down at t=2.5")
			}
		}},
		{3.5, func() {
			if got := rt.DeviceAt(0, 4).SlowFactor(); got != 2.5 {
				t.Errorf("GPU4 slow factor: got %g want 2.5", got)
			}
		}},
	}
	for _, c := range checks {
		eng.At(c.at, c.fn)
	}
	eng.Run()

	if len(inj.Log()) != 3 {
		t.Fatalf("log entries: got %d want 3: %v", len(inj.Log()), inj.Log())
	}
	for i, want := range []sim.Time{1, 2, 3} {
		if inj.Log()[i].At != want {
			t.Errorf("log[%d].At: got %g want %g", i, inj.Log()[i].At, want)
		}
	}
}

// TestNICFlapAutoRecovers: NICFlap fails both directions and restores them
// after the outage without an explicit recover event.
func TestNICFlapAutoRecovers(t *testing.T) {
	eng, m, rt, w := rig(2, 1)
	inj := NewInjector(m, rt, w)
	if err := inj.Install((&Scenario{Name: "flap"}).FlapNIC(1, 1, 0.5)); err != nil {
		t.Fatal(err)
	}
	out, in := m.Nodes[1].NIC()
	eng.At(1.2, func() {
		if !out.Down() || !in.Down() {
			t.Error("NIC not down mid-flap")
		}
	})
	eng.At(1.6, func() {
		if out.Down() || in.Down() || out.Health() != 1 {
			t.Error("NIC not recovered after outage")
		}
	})
	eng.Run()
	if len(inj.Log()) != 2 || inj.Log()[1].At != 1.5 {
		t.Errorf("flap log: %v", inj.Log())
	}
}

// TestLinkFailWithRecovery: a LinkFail with Duration heals itself.
func TestLinkFailWithRecovery(t *testing.T) {
	eng, m, _, _ := rig(1, 1)
	inj := NewInjector(m, nil, nil)
	if err := inj.Install((&Scenario{Name: "heal"}).KillNVLink(1, 0, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	ab, _ := m.Nodes[0].NVLinkPair(1, 2)
	eng.At(2, func() {
		if !ab.Down() {
			t.Error("NVLink up during failure window")
		}
	})
	eng.At(4.5, func() {
		if ab.Down() || ab.Health() != 1 {
			t.Error("NVLink not healed at t=4.5")
		}
	})
	eng.Run()
}

// TestStraggleRecovery and rank pause plumbing.
func TestStraggleAndPause(t *testing.T) {
	eng, m, rt, w := rig(1, 2)
	inj := NewInjector(m, rt, w)
	sc := (&Scenario{Name: "sp"}).
		StraggleGPU(1, 0, 0, 3, 2).
		PauseRank(1, 1, 0.25)
	if err := inj.Install(sc); err != nil {
		t.Fatal(err)
	}
	eng.At(2, func() {
		if got := rt.DeviceAt(0, 0).SlowFactor(); got != 3 {
			t.Errorf("mid-straggle factor: got %g want 3", got)
		}
	})
	eng.At(3.5, func() {
		if got := rt.DeviceAt(0, 0).SlowFactor(); got != 1 {
			t.Errorf("post-recovery factor: got %g want 1", got)
		}
	})
	eng.Run()
	if len(inj.Log()) != 3 {
		t.Errorf("log: %v", inj.Log())
	}
}

// TestInstallValidation rejects malformed events before scheduling anything.
func TestInstallValidation(t *testing.T) {
	_, m, rt, w := rig(1, 2)
	cases := []struct {
		name string
		sc   *Scenario
	}{
		{"bad node", (&Scenario{}).FlapNIC(1, 7, 0.1)},
		{"no such nvlink (cross-socket)", (&Scenario{}).KillNVLink(1, 0, 0, 3, 0)},
		{"gpu out of range", (&Scenario{}).StraggleGPU(1, 0, 9, 2, 0)},
		{"straggle below 1", (&Scenario{}).StraggleGPU(1, 0, 0, 0.5, 0)},
		{"degrade factor 0", (&Scenario{}).DegradeNIC(1, 0, 0)},
		{"rank out of range", (&Scenario{}).PauseRank(1, 5, 1)},
		{"pause without duration", (&Scenario{}).PauseRank(1, 0, 0)},
		{"flap without outage", (&Scenario{}).FlapNIC(1, 0, 0)},
		{"degrade a gpu", (&Scenario{}).Add(Event{At: 1, Kind: LinkDegrade, Factor: 0.5,
			Target: Target{Kind: TargetGPU, A: 0}})},
	}
	for _, c := range cases {
		inj := NewInjector(m, rt, w)
		if err := inj.Install(c.sc); err == nil {
			t.Errorf("%s: Install accepted a bad scenario", c.name)
		}
	}
}

// TestScenarioDeterminism: installing the same scenario on two fresh
// simulations with identical traffic yields byte-identical fault logs and
// identical transfer completion times.
func TestScenarioDeterminism(t *testing.T) {
	run := func() (string, sim.Time) {
		eng, m, rt, w := rig(2, 2)
		w.SendTimeout = 5e-3
		inj := NewInjector(m, rt, w)
		sc := (&Scenario{Name: "det"}).
			FlapNIC(2e-3, 0, 10e-3).
			KillNVLink(1e-3, 0, 0, 1, 20e-3).
			StraggleGPU(0, 1, 2, 2, 0)
		if err := inj.Install(sc); err != nil {
			t.Fatal(err)
		}
		const bytes = 4 << 20
		src := rt.MallocHost(0, 0, bytes)
		dst := rt.MallocHost(1, 0, bytes)
		var arrived sim.Time
		eng.Spawn("send", func(p *sim.Proc) { w.Rank(0).Isend(2, 1, src, 0, bytes).Wait(p) })
		eng.Spawn("recv", func(p *sim.Proc) {
			w.Rank(2).Irecv(0, 1, dst, 0, bytes).Wait(p)
			arrived = p.Now()
		})
		eng.Run()
		log := ""
		for _, r := range inj.Log() {
			log += fmt.Sprintf("%.15g %s\n", r.At, r.Desc)
		}
		return log, arrived
	}
	log1, t1 := run()
	log2, t2 := run()
	if log1 != log2 {
		t.Errorf("fault logs differ:\n%s\nvs\n%s", log1, log2)
	}
	if t1 != t2 {
		t.Errorf("completion times differ: %.15g vs %.15g", t1, t2)
	}
	if log1 == "" {
		t.Error("empty fault log")
	}
}

// TestScenarioValidate covers the standalone scenario validator: structural
// problems (negative times, factors, durations, unknown kinds), factors and
// durations outside their kind's range, and targets of the wrong kind are
// rejected without needing an injector or a machine.
func TestScenarioValidate(t *testing.T) {
	good := (&Scenario{Name: "ok"}).
		DegradeNIC(1, 0, 0.25).
		KillGPU(2, 0, 3).
		KillRank(3, 1)
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected a well-formed scenario: %v", err)
	}
	cases := []struct {
		name string
		sc   *Scenario
	}{
		{"negative time", (&Scenario{}).Add(Event{At: -1, Kind: NICFlap, Duration: 1,
			Target: Target{Kind: TargetNIC}})},
		{"negative factor", (&Scenario{}).Add(Event{At: 1, Kind: LinkDegrade, Factor: -0.5,
			Target: Target{Kind: TargetNIC}})},
		{"negative duration", (&Scenario{}).Add(Event{At: 1, Kind: NICFlap, Duration: -2,
			Target: Target{Kind: TargetNIC}})},
		{"kind out of range", (&Scenario{}).Add(Event{At: 1, Kind: Kind(99),
			Target: Target{Kind: TargetNIC}})},
		{"negative kind", (&Scenario{}).Add(Event{At: 1, Kind: Kind(-1),
			Target: Target{Kind: TargetNIC}})},
		// Machine-independent rules that need no injector either.
		{"straggle below 1", (&Scenario{}).StraggleGPU(1, 0, 0, 0.5, 0)},
		{"degrade factor 0", (&Scenario{}).DegradeNIC(1, 0, 0)},
		{"pause without duration", (&Scenario{}).PauseRank(1, 0, 0)},
		{"flap without outage", (&Scenario{}).FlapNIC(1, 0, 0)},
		{"degrade a gpu", (&Scenario{}).Add(Event{At: 1, Kind: LinkDegrade, Factor: 0.5,
			Target: Target{Kind: TargetGPU, A: 0}})},
		{"straggle a nic", (&Scenario{}).Add(Event{At: 1, Kind: GPUStraggle, Factor: 2,
			Target: Target{Kind: TargetNIC}})},
		{"pause a gpu", (&Scenario{}).Add(Event{At: 1, Kind: RankPause, Duration: 1,
			Target: Target{Kind: TargetGPU}})},
		{"flap an nvlink", (&Scenario{}).Add(Event{At: 1, Kind: NICFlap, Duration: 1,
			Target: Target{Kind: TargetNVLink, A: 0, B: 1}})},
		{"gpu-fail on a rank", (&Scenario{}).Add(Event{At: 1, Kind: GPUFail,
			Target: Target{Kind: TargetRank}})},
		{"rank-fail on a gpu", (&Scenario{}).Add(Event{At: 1, Kind: RankFail,
			Target: Target{Kind: TargetGPU}})},
		{"drop on a rank", (&Scenario{}).Add(Event{At: 1, Kind: MsgDrop, Factor: 0.1,
			Target: Target{Kind: TargetRank}})},
	}
	for _, c := range cases {
		if err := c.sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad scenario", c.name)
		}
	}
	// Install runs Validate first: a structurally bad event is rejected with
	// the same error even when target validation would also fail.
	_, m, rt, w := rig(1, 2)
	inj := NewInjector(m, rt, w)
	if err := inj.Install(cases[1].sc); err == nil {
		t.Error("Install accepted a scenario Validate rejects")
	}
}

// TestScenarioValidateDeliveryKinds: table-driven validation of the
// probabilistic delivery-fault and periodic-flap kinds — probabilities must
// lie in [0,1], flap periods must be positive, duty cycles in (0,1).
func TestScenarioValidateDeliveryKinds(t *testing.T) {
	cases := []struct {
		name    string
		sc      *Scenario
		wantErr string // "" means valid
	}{
		{"drop ok", (&Scenario{}).DropMsgs(1, 0, 0.2), ""},
		{"corrupt ok", (&Scenario{}).CorruptMsgs(1, 0, 1), ""},
		{"dup ok", (&Scenario{}).DupMsgs(1, 0, 0), ""},
		{"lossy combo ok", (&Scenario{}).LossyNIC(1, 0, 0.2, 0.1, 0.05), ""},
		{"flap ok", (&Scenario{}).FlapNICPeriodic(1, 0, 0.5, 0.4, 6), ""},
		{"flap default cycles ok", (&Scenario{}).FlapNICPeriodic(1, 0, 0.5, 0.4, 0), ""},
		{"drop p>1", (&Scenario{}).DropMsgs(1, 0, 1.5), "outside [0,1]"},
		{"drop p<0", (&Scenario{}).DropMsgs(1, 0, -0.1), "outside [0,1]"},
		{"corrupt p>1", (&Scenario{}).CorruptMsgs(1, 0, 2), "outside [0,1]"},
		{"dup p<0", (&Scenario{}).DupMsgs(1, 0, -1), "outside [0,1]"},
		{"flap zero period", (&Scenario{}).FlapNICPeriodic(1, 0, 0, 0.5, 2), "non-positive flap period"},
		{"flap negative period", (&Scenario{}).FlapNICPeriodic(1, 0, -1, 0.5, 2), "non-positive flap period"},
		{"flap zero duty", (&Scenario{}).FlapNICPeriodic(1, 0, 1, 0, 2), "duty cycle"},
		{"flap duty 1", (&Scenario{}).FlapNICPeriodic(1, 0, 1, 1, 2), "duty cycle"},
		{"flap negative duty", (&Scenario{}).FlapNICPeriodic(1, 0, 1, -0.3, 2), "duty cycle"},
		{"flap negative cycles", (&Scenario{}).FlapNICPeriodic(1, 0, 1, 0.5, -2), "cycle count"},
	}
	for _, c := range cases {
		err := c.sc.Validate()
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: Validate rejected a well-formed scenario: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: Validate accepted a bad scenario", c.name)
		} else if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

// TestMsgFaultsSetLinkLoss: Msg* events install (and clear) the per-link loss
// probabilities on both NIC directions, and require an MPI world to sample
// them.
func TestMsgFaultsSetLinkLoss(t *testing.T) {
	eng, m, rt, w := rig(2, 1)
	inj := NewInjector(m, rt, w)
	sc := (&Scenario{Name: "lossy", Seed: 7}).
		DropMsgs(1, 0, 0.2).CorruptMsgs(1, 0, 0.1).DupMsgs(1, 0, 0.05).
		DropMsgs(2, 0, 0)
	if err := inj.Install(sc); err != nil {
		t.Fatal(err)
	}
	if !w.Reliable || w.DeliverySeed != 7 {
		t.Errorf("Install did not arm the reliable layer: Reliable=%v seed=%d", w.Reliable, w.DeliverySeed)
	}
	out, in := m.Nodes[0].NIC()
	eng.At(1.5, func() {
		for _, l := range []*flownet.Link{out, in} {
			if ls := l.Loss(); ls.Drop != 0.2 || ls.Corrupt != 0.1 || ls.Dup != 0.05 {
				t.Errorf("loss on %s at t=1.5: %+v", l.Name, ls)
			}
		}
	})
	eng.Run()
	if ls := out.Loss(); ls.Drop != 0 || ls.Corrupt != 0.1 {
		t.Errorf("drop not cleared independently: %+v", ls)
	}
	// Without an MPI world nothing samples the loss: reject at install time.
	inj2 := NewInjector(m, rt, nil)
	if err := inj2.Install((&Scenario{}).DropMsgs(1, 0, 0.5)); err == nil {
		t.Error("Install accepted a delivery fault without an MPI world")
	}
}

// TestLinkFlapPeriodic: a LinkFlap event fails and recovers its links once
// per cycle for exactly Repeat cycles, then leaves them healthy.
func TestLinkFlapPeriodic(t *testing.T) {
	eng, m, rt, w := rig(2, 1)
	inj := NewInjector(m, rt, w)
	if err := inj.Install((&Scenario{Name: "flappy"}).FlapNICPeriodic(1, 1, 1.0, 0.25, 3)); err != nil {
		t.Fatal(err)
	}
	out, in := m.Nodes[1].NIC()
	for c := 0; c < 3; c++ {
		at := 1 + sim.Time(c)
		eng.At(at+0.1, func() {
			if !out.Down() || !in.Down() {
				t.Errorf("NIC not down at t=%g", at+0.1)
			}
		})
		eng.At(at+0.5, func() {
			if out.Down() || in.Down() {
				t.Errorf("NIC not recovered at t=%g", at+0.5)
			}
		})
	}
	eng.Run()
	if out.Down() || out.Health() != 1 {
		t.Error("NIC unhealthy after flap episode ended")
	}
	if got := out.DownCount(); got != 3 {
		t.Errorf("DownCount: got %d want 3", got)
	}
	downs := 0
	for _, rec := range inj.Log() {
		if rec.Kind == LinkFlap.String() {
			downs++
		}
	}
	if downs != 3 {
		t.Errorf("flap down records: got %d want 3: %v", downs, inj.Log())
	}
}

// TestHasDelivery: only Msg* kinds require the reliable-delivery envelope.
func TestHasDelivery(t *testing.T) {
	if (&Scenario{}).FlapNICPeriodic(1, 0, 1, 0.5, 2).KillGPU(2, 0, 0).HasDelivery() {
		t.Error("non-delivery scenario reported delivery faults")
	}
	for _, sc := range []*Scenario{
		(&Scenario{}).DropMsgs(1, 0, 0.1),
		(&Scenario{}).CorruptMsgs(1, 0, 0.1),
		(&Scenario{}).DupMsgs(1, 0, 0.1),
	} {
		if !sc.HasDelivery() {
			t.Errorf("scenario %v not reported as delivery-faulted", sc.Events)
		}
	}
}

// TestHasFatal: only GPUFail and RankFail make a scenario fatal.
func TestHasFatal(t *testing.T) {
	if (&Scenario{}).DegradeNIC(1, 0, 0.5).KillNVLink(2, 0, 0, 1, 0).HasFatal() {
		t.Error("non-fatal scenario reported fatal")
	}
	if !(&Scenario{}).KillGPU(1, 0, 0).HasFatal() {
		t.Error("KillGPU scenario not reported fatal")
	}
	if !(&Scenario{}).KillRank(1, 0).HasFatal() {
		t.Error("KillRank scenario not reported fatal")
	}
}

// TestSameTimestampStableOrder: events that share a timestamp apply in
// insertion order — a documented contract (Install sorts stably by At), so
// e.g. a degrade-then-kill pair at the same instant behaves predictably.
func TestSameTimestampStableOrder(t *testing.T) {
	eng, m, rt, w := rig(1, 2)
	inj := NewInjector(m, rt, w)
	// Three same-time events in a deliberately non-monotonic surrounding
	// order; the log must show t=1 first, then the t=2 triple in insertion
	// order, regardless of how the sort shuffles equal keys.
	sc := (&Scenario{Name: "ties"}).
		StraggleGPU(2, 0, 0, 2, 0).
		DegradeNIC(1, 0, 0.5).
		StraggleGPU(2, 0, 1, 3, 0).
		StraggleGPU(2, 0, 2, 4, 0)
	if err := inj.Install(sc); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	log := inj.Log()
	if len(log) != 4 {
		t.Fatalf("log entries: got %d want 4: %v", len(log), log)
	}
	wantAt := []sim.Time{1, 2, 2, 2}
	for i, at := range wantAt {
		if log[i].At != at {
			t.Errorf("log[%d].At = %g, want %g", i, log[i].At, at)
		}
	}
	// Insertion order within the t=2 tie: GPU 0, then 1, then 2.
	for i, gpu := range []int{0, 1, 2} {
		if got := rt.DeviceAt(0, gpu).SlowFactor(); got != float64(gpu+2) {
			t.Errorf("GPU %d slow factor %g, want %d", gpu, got, gpu+2)
		}
		if want := fmt.Sprintf("gpu.%d", gpu); !strings.Contains(log[i+1].Desc, want) {
			t.Errorf("log[%d] = %q, want mention of %q (stable tie order)", i+1, log[i+1].Desc, want)
		}
	}
}

// TestFatalKinds: GPUFail marks the device dead (leaving its links up);
// RankFail marks the rank failed and kills every device it drives.
func TestFatalKinds(t *testing.T) {
	eng, m, rt, w := rig(1, 2)
	inj := NewInjector(m, rt, w)
	sc := (&Scenario{Name: "fatal"}).KillGPU(1, 0, 5).KillRank(2, 0)
	if err := inj.Install(sc); err != nil {
		t.Fatal(err)
	}
	eng.At(1.5, func() {
		if !rt.DeviceAt(0, 5).Dead() {
			t.Error("GPU 5 not dead after GPUFail")
		}
		if rt.DeviceAt(0, 4).Dead() {
			t.Error("GPU 4 dead without a fault")
		}
		if w.Rank(0).Failed() {
			t.Error("rank 0 failed before its event")
		}
		// Fail-stop: the dead GPU's links stay up (the fabric survives).
		for _, l := range m.Nodes[0].IntraLinks() {
			if l.Down() {
				t.Errorf("link %s down after GPUFail", l.Name)
			}
		}
	})
	eng.At(2.5, func() {
		if !w.Rank(0).Failed() {
			t.Error("rank 0 not failed after RankFail")
		}
		// Rank 0 of 2 ranks/node drives GPUs 0-2.
		for g := 0; g < 3; g++ {
			if !rt.DeviceAt(0, g).Dead() {
				t.Errorf("GPU %d not dead after its rank failed", g)
			}
		}
		if rt.DeviceAt(0, 3).Dead() {
			t.Error("GPU 3 (other rank) dead after rank 0 failed")
		}
	})
	eng.Run()
	if len(inj.Log()) != 2 {
		t.Fatalf("log entries: got %d want 2: %v", len(inj.Log()), inj.Log())
	}
}

// TestFatalTargetValidation: fatal events still go through target checks.
func TestFatalTargetValidation(t *testing.T) {
	_, m, rt, w := rig(1, 2)
	for name, sc := range map[string]*Scenario{
		"gpu out of range":  (&Scenario{}).KillGPU(1, 0, 6),
		"node out of range": (&Scenario{}).KillGPU(1, 3, 0),
		"rank out of range": (&Scenario{}).KillRank(1, 2),
	} {
		inj := NewInjector(m, rt, w)
		if err := inj.Install(sc); err == nil {
			t.Errorf("%s: Install accepted a bad fatal event", name)
		}
	}
}
