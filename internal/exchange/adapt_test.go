package exchange

import (
	"fmt"
	"strings"
	"testing"

	"github.com/nodeaware/stencil/internal/fault"
	"github.com/nodeaware/stencil/internal/sim"
)

// peerNVLinkPlan finds a PEERMEMCPY plan whose payload crosses a real
// NVLink (distinct same-triad GPUs). Placement is deterministic, so every
// fresh exchanger with the same options yields the same plan.
func peerNVLinkPlan(t *testing.T, e *Exchanger) *Plan {
	t.Helper()
	for _, pl := range e.Plans {
		if pl.Method == MethodPeer && pl.Src.Dev != pl.Dst.Dev &&
			e.M.Nodes[0].SameTriad(pl.Src.LocalGPU, pl.Dst.LocalGPU) {
			return pl
		}
	}
	t.Fatal("no NVLink-crossing PEERMEMCPY plan in this configuration")
	return nil
}

// adaptOpts is the acceptance configuration: one Summit node, two ranks, so
// intra-rank triad pairs run PEERMEMCPY and the full ladder is populated.
func adaptOpts(adaptive bool) Options {
	o := smallOpts(2, CapsAll(), false)
	o.Adaptive = adaptive
	return o
}

// killScenario schedules the acceptance fault: the NVLink under the given
// plan dies at t=50us, during the exchange, and never recovers.
func killScenario(pl *Plan) *fault.Scenario {
	return (&fault.Scenario{Name: "nvkill"}).
		KillNVLink(50e-6, 0, pl.Src.LocalGPU, pl.Dst.LocalGPU, 0)
}

func runKilled(t *testing.T, adaptive bool, iters int) (*Exchanger, *Plan, *Stats) {
	t.Helper()
	e, err := New(adaptOpts(adaptive))
	if err != nil {
		t.Fatal(err)
	}
	pl := peerNVLinkPlan(t, e)
	e.Faults = fault.NewInjector(e.M, e.RT, e.W)
	if err := e.Faults.Install(killScenario(pl)); err != nil {
		t.Fatal(err)
	}
	fillGlobal(e)
	return e, pl, e.Run(iters)
}

// TestAdaptiveNVLinkFailure is the acceptance scenario: an NVLink carrying a
// PEERMEMCPY plan dies mid-run; the monitor demotes the plan to STAGED (same
// rank, so COLOCATEDMEMCPY is inapplicable), the exchange reroutes through
// host staging, and the halos remain byte-identical.
func TestAdaptiveNVLinkFailure(t *testing.T) {
	e, pl, stats := runKilled(t, true, 6)
	if pl.Method != MethodStaged {
		t.Errorf("plan %d after NVLink failure: method %s, want STAGED", pl.ID, pl.Method)
	}
	if len(stats.AdaptEvents) == 0 {
		t.Fatal("no adaptation events recorded")
	}
	if len(stats.FaultLog) == 0 {
		t.Fatal("no fault log recorded")
	}
	found := false
	for _, r := range stats.AdaptEvents {
		if r.PlanID == pl.ID && r.From == MethodPeer && r.To == MethodStaged {
			found = true
		}
	}
	if !found {
		t.Errorf("no PEERMEMCPY->STAGED record for plan %d in %v", pl.ID, stats.AdaptEvents)
	}
	if stats.MethodCount[MethodStaged] == 0 {
		t.Error("final method breakdown shows no STAGED plans")
	}
	verifyHalos(t, e)
}

// TestAdaptiveBeatsNonAdaptive: under the identical scenario the adaptive
// run finishes in strictly less virtual time than the non-adaptive one,
// which keeps pushing bytes through the failed link's residual trickle. Both
// stay byte-correct.
func TestAdaptiveBeatsNonAdaptive(t *testing.T) {
	sum := func(s *Stats) sim.Time {
		var tot sim.Time
		for _, it := range s.Iterations {
			tot += it
		}
		return tot
	}
	eAdapt, _, sAdapt := runKilled(t, true, 6)
	eFixed, plFixed, sFixed := runKilled(t, false, 6)
	if plFixed.Method != MethodPeer {
		t.Errorf("non-adaptive plan changed method to %s", plFixed.Method)
	}
	if len(sFixed.AdaptEvents) != 0 {
		t.Errorf("non-adaptive run recorded adaptation: %v", sFixed.AdaptEvents)
	}
	ta, tf := sum(sAdapt), sum(sFixed)
	if ta >= tf {
		t.Errorf("adaptive total %.6gs not better than non-adaptive %.6gs", ta, tf)
	}
	verifyHalos(t, eAdapt)
	verifyHalos(t, eFixed)
}

// TestAdaptiveDeterminism: identical scenario and configuration produce
// identical iteration times, fault logs, and adaptation logs. This run also
// exercises the Options.Fault installation path.
func TestAdaptiveDeterminism(t *testing.T) {
	run := func() (string, *Stats) {
		opts := adaptOpts(true)
		probe, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		pl := peerNVLinkPlan(t, probe)
		opts.Fault = killScenario(pl)
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		fillGlobal(e)
		stats := e.Run(5)
		trace := ""
		for _, r := range stats.FaultLog {
			trace += fmt.Sprintf("F %.15g %s\n", r.At, r.Desc)
		}
		for _, r := range stats.AdaptEvents {
			trace += fmt.Sprintf("A %.15g %d %s %s %s\n", r.At, r.PlanID, r.From, r.To, r.Reason)
		}
		for _, it := range stats.Iterations {
			trace += fmt.Sprintf("I %.15g\n", it)
		}
		return trace, stats
	}
	t1, s1 := run()
	t2, _ := run()
	if t1 != t2 {
		t.Errorf("traces differ:\n%s\nvs\n%s", t1, t2)
	}
	if len(s1.FaultLog) == 0 || len(s1.AdaptEvents) == 0 {
		t.Fatalf("scenario did not exercise fault+adapt: faults=%d adapts=%d",
			len(s1.FaultLog), len(s1.AdaptEvents))
	}
}

// TestRepromotionReusesResources: demote/promote cycles restore the cached
// buffers and streams instead of allocating fresh ones.
func TestRepromotionReusesResources(t *testing.T) {
	e, err := New(adaptOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	pl := peerNVLinkPlan(t, e)
	ab, ba := e.M.Nodes[0].NVLinkPair(pl.Src.LocalGPU, pl.Dst.LocalGPU)
	peerSend := pl.devSend

	e.M.Net.FailLink(ab)
	e.M.Net.FailLink(ba)
	e.adaptTick(nil)
	if pl.Method != MethodStaged {
		t.Fatalf("after failure: method %s, want STAGED", pl.Method)
	}
	stagedHost := pl.hostSend
	if stagedHost == nil {
		t.Fatal("STAGED plan has no host staging buffer")
	}

	e.M.Net.RestoreLink(ab)
	e.M.Net.RestoreLink(ba)
	e.adaptTick(nil)
	if pl.Method != MethodPeer {
		t.Fatalf("after recovery: method %s, want PEERMEMCPY", pl.Method)
	}
	if pl.devSend != peerSend {
		t.Error("re-promotion allocated a fresh device buffer instead of reusing the cached one")
	}

	e.M.Net.FailLink(ab)
	e.M.Net.FailLink(ba)
	e.adaptTick(nil)
	if pl.hostSend != stagedHost {
		t.Error("second demotion allocated a fresh host buffer instead of reusing the cached one")
	}
	// The pair exchanges several directions, so each tick flips several
	// plans; the target plan itself must have exactly three records.
	got := 0
	for _, r := range e.AdaptLog {
		if r.PlanID == pl.ID {
			got++
		}
	}
	if got != 3 {
		t.Errorf("adapt log entries for plan %d: got %d want 3: %v", pl.ID, got, e.AdaptLog)
	}
}

// TestPickMethodHealthyMatchesSetup: with every link healthy the health-
// gated selection reproduces the setup-time selection exactly, for every
// rung of the capability ladder.
func TestPickMethodHealthyMatchesSetup(t *testing.T) {
	for _, caps := range []Capabilities{CapsRemote(), CapsColo(), CapsPeer(), CapsAll()} {
		for _, ca := range []bool{false, true} {
			o := smallOpts(2, caps, ca)
			o.RealData = false
			e, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			for _, pl := range e.Plans {
				if got := e.pickMethodHealthy(pl); got != pl.Method {
					t.Errorf("caps=%+v ca=%v plan %d: healthy pick %s != setup pick %s",
						caps, ca, pl.ID, got, pl.Method)
				}
			}
		}
	}
}

// TestAdaptPlacement: persistent heavy degradation of an NVLink triggers a
// phase-2 re-placement pass against the live bandwidth matrix; the exchange
// remains byte-correct afterward (subdomain state migrates with the GPUs).
func TestAdaptPlacement(t *testing.T) {
	o := adaptOpts(true)
	o.AdaptPlacement = true
	e, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	pl := peerNVLinkPlan(t, e)
	sc := (&fault.Scenario{Name: "degrade"}).Add(fault.Event{
		At: 50e-6, Kind: fault.LinkDegrade, Factor: 0.02,
		Target: fault.Target{Node: 0, Kind: fault.TargetNVLink, A: pl.Src.LocalGPU, B: pl.Dst.LocalGPU},
	})
	e.Faults = fault.NewInjector(e.M, e.RT, e.W)
	if err := e.Faults.Install(sc); err != nil {
		t.Fatal(err)
	}
	fillGlobal(e)
	stats := e.Run(8)
	replaced := false
	for _, r := range stats.AdaptEvents {
		if r.PlanID == -1 {
			replaced = true
		}
	}
	if !replaced {
		t.Errorf("no re-placement record under persistent degradation: %v", stats.AdaptEvents)
	}
	// Whatever the QAP decided, the machine invariants must hold.
	for _, s := range e.Subs {
		if s.Dev != e.RT.DeviceAt(s.NodeID, s.LocalGPU) {
			t.Errorf("sub %v device/GPU mismatch after re-placement", s.Global)
		}
		if want := s.NodeID*o.RanksPerNode + s.LocalGPU/e.gpusPerRank; s.Rank != want {
			t.Errorf("sub %v rank %d, want %d", s.Global, s.Rank, want)
		}
	}
	verifyHalos(t, e)
}

// TestAdaptOptionValidation: Options.Validate is the admission rule for the
// adaptation, recovery and retry knobs. Each invalid row is rejected with an
// error naming the conflicting option, valid rows pass, and New agrees with
// Validate on every row.
func TestAdaptOptionValidation(t *testing.T) {
	fatal := (&fault.Scenario{Name: "kill"}).KillGPU(1e-3, 0, 1)
	cases := []struct {
		name string
		mod  func(*Options)
		want string // "" means valid
	}{
		{"adaptive", func(o *Options) { o.Adaptive = true }, ""},
		{"adapt placement", func(o *Options) { o.Adaptive = true; o.AdaptPlacement = true }, ""},
		{"adapt placement without adaptive", func(o *Options) { o.AdaptPlacement = true }, "Adaptive"},
		{"adapt placement with aggregation", func(o *Options) {
			o.Adaptive = true
			o.AdaptPlacement = true
			o.AggregateRemote = true
		}, "AggregateRemote"},
		{"adapt placement with overlap", func(o *Options) {
			o.Adaptive = true
			o.AdaptPlacement = true
			o.Overlap = true
		}, "AdaptPlacement"},
		{"negative checkpoint interval", func(o *Options) { o.CheckpointEvery = -1 }, "CheckpointEvery"},
		{"fatal fault with checkpoints", func(o *Options) { o.Fault = fatal; o.CheckpointEvery = 2 }, ""},
		{"fatal fault without checkpoints", func(o *Options) { o.Fault = fatal }, "CheckpointEvery"},
		{"fatal fault with aggregation", func(o *Options) {
			o.Fault = fatal
			o.CheckpointEvery = 2
			o.AggregateRemote = true
		}, "AggregateRemote"},
		{"fatal fault with adapt placement", func(o *Options) {
			o.Fault = fatal
			o.CheckpointEvery = 2
			o.Adaptive = true
			o.AdaptPlacement = true
		}, "AdaptPlacement"},
		{"straggle below 1", func(o *Options) {
			o.Fault = (&fault.Scenario{}).StraggleGPU(1e-3, 0, 0, 0.5, 0)
		}, "straggle factor"},
		{"negative send timeout", func(o *Options) { o.SendTimeout = -1 }, "SendTimeout"},
		{"negative send retries", func(o *Options) { o.SendRetries = -2 }, "SendRetries"},
		{"negative quarantine ticks", func(o *Options) { o.QuarantineTicks = -3 }, "QuarantineTicks"},
	}
	for _, tc := range cases {
		o := smallOpts(2, CapsAll(), false)
		o.RealData = false
		tc.mod(&o)
		err := o.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: Validate rejected a valid configuration: %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate error %v, want one naming %s", tc.name, err, tc.want)
		}
		if _, nerr := New(o); (nerr == nil) != (err == nil) {
			t.Errorf("%s: New error %v disagrees with Validate error %v", tc.name, nerr, err)
		}
	}
}
