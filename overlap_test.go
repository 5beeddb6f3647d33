package stencil

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

// This file is the determinism-equivalence harness for compute/communication
// overlap (Config.Overlap): pipelined runs must be *byte-identical* to
// barrier-gated runs on every domain and halo byte — under clean networks,
// lossy networks, and fail-stop kills — and, within a mode, bit-identical
// across reruns and payload worker counts. The pipeline may only change when
// work happens, never what it computes.

const overlapIters = 6

// overlapCfg is the equivalence job: same shape as the chaos job (2 nodes x
// 2 ranks/node, 12 GPUs, real data) so failures are comparable across suites.
func overlapCfg(workers int) Config {
	return Config{
		Nodes:        2,
		RanksPerNode: 2,
		Domain:       Dim3{X: 24, Y: 24, Z: 12},
		Radius:       1,
		Quantities:   2,
		Capabilities: CapsAll(),
		RealData:     true,
		Workers:      workers,
	}
}

// overlapInc is the reference compute payload: +1 on every interior cell of
// both quantities, so divergence anywhere propagates to the fingerprints.
func overlapInc(s *Subdomain) {
	s.ForEachInterior(func(x, y, z int) {
		for q := 0; q < 2; q++ {
			s.Set(q, x, y, z, s.Get(q, x, y, z)+1)
		}
	})
}

// domainFingerprints hashes every subdomain's full backing store — interior
// AND halo bytes — in deterministic order.
func domainFingerprints(dd *DistributedDomain) []uint64 {
	fp := make([]uint64, 0, dd.NumSubdomains())
	for _, s := range dd.Subdomains() {
		fp = append(fp, s.sub.Dom.Fingerprint())
	}
	return fp
}

// recoveryProjection renders the recovery log with virtual times stripped:
// the pipeline legitimately moves *when* recovery actions happen, but the
// actions themselves — kinds, in order, with their detail — must agree.
func recoveryProjection(dd *DistributedDomain) string {
	var b bytes.Buffer
	for _, r := range dd.RecoveryLog() {
		fmt.Fprintf(&b, "%s: %s\n", r.Kind, r.Desc)
	}
	return b.String()
}

// overlapEquivRun builds and runs one side of an equivalence pair.
func overlapEquivRun(t *testing.T, cfg Config, compute ComputeFunc, iters int) (*DistributedDomain, *Stats) {
	t.Helper()
	dd, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dd.Fill(chaosFill)
	return dd, dd.Step(iters, compute)
}

// assertSameDomains fails unless both runs hold byte-identical domains.
func assertSameDomains(t *testing.T, label string, ref, got *DistributedDomain) {
	t.Helper()
	want, have := domainFingerprints(ref), domainFingerprints(got)
	for i := range want {
		if have[i] != want[i] {
			t.Errorf("%s: sub %v domain bytes diverge between barrier and overlap modes",
				label, got.Subdomains()[i].GlobalIndex())
		}
	}
}

// TestOverlapEquivalence is the table-driven core of the harness: for each
// scenario — clean, exchange-only, open boundary, face-only, lossy with
// exhausted deliveries, and a fail-stop kill with rollback — the overlap-on
// run must produce byte-identical domains (interiors and halos) to the
// overlap-off run of the same schedule.
func TestOverlapEquivalence(t *testing.T) {
	lossy := func(cfg *Config) {
		sc := &FaultScenario{Name: "overlap-lossy", Seed: 21}
		for n := 0; n < 2; n++ {
			sc.LossyNIC(0, n, 0.2, 0.2, 0.2)
		}
		cfg.Fault = sc
		cfg.SendRetries = 2
	}
	cases := []struct {
		name    string
		mutate  func(*Config)
		compute ComputeFunc
	}{
		{"clean-compute", nil, overlapInc},
		{"exchange-only", nil, nil},
		{"open-boundary", func(cfg *Config) { cfg.OpenBoundary = true }, overlapInc},
		{"face-only", func(cfg *Config) { cfg.Neighborhood = 6 }, overlapInc},
		{"radius-2", func(cfg *Config) { cfg.Radius = 2 }, overlapInc},
		{"lossy-compute", lossy, overlapInc},
		{"lossy-exchange-only", lossy, nil},
		{"reliable-clean", func(cfg *Config) { cfg.Reliable = true; cfg.VerifyExchange = true }, overlapInc},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			base := overlapCfg(0)
			if tc.mutate != nil {
				tc.mutate(&base)
			}
			offCfg, onCfg := base, base
			onCfg.Overlap = true
			ref, _ := overlapEquivRun(t, offCfg, tc.compute, overlapIters)
			got, stats := overlapEquivRun(t, onCfg, tc.compute, overlapIters)
			assertSameDomains(t, tc.name, ref, got)
			if tc.compute == nil {
				// Exchange-only runs additionally admit the closed-form
				// halo oracle.
				if bad, detail := got.VerifyHalos(chaosFill); bad != 0 {
					t.Errorf("%d bad halo cells in overlap mode: %s", bad, detail)
				}
			}
			if tc.name == "lossy-compute" || tc.name == "lossy-exchange-only" {
				d := stats.Delivery
				if d.Drops == 0 || d.Corrupts == 0 || d.Dups == 0 {
					t.Fatalf("delivery faults not exercised in overlap mode: %+v", d)
				}
				if d.Exhausted > 0 && stats.ReExchanges == 0 && stats.ForcedRepairs == 0 {
					t.Errorf("deliveries landed compromised (%d) but verification repaired nothing", d.Exhausted)
				}
			}
		})
	}
}

// TestOverlapEquivalenceKill runs the fuzzed fail-stop schedules through both
// modes: byte-identical domains, and recovery logs identical under the
// time-stripped projection (the pipeline moves when rollback happens, never
// what it does).
func TestOverlapEquivalenceKill(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc, desc := chaosSchedule(t, seed)
			t.Logf("seed %d: kill schedule: %s", seed, desc)
			base := overlapCfg(0)
			base.Adaptive = true
			base.CheckpointEvery = 2
			base.Fault = sc
			offCfg, onCfg := base, base
			// The schedules were timed against the barrier-mode probe; both
			// runs share them, so both recover mid-run or neither does.
			onCfg.Overlap = true
			ref, refStats := overlapEquivRun(t, offCfg, overlapInc, overlapIters)
			got, gotStats := overlapEquivRun(t, onCfg, overlapInc, overlapIters)
			if refStats.Rollbacks == 0 {
				t.Skip("schedule did not trigger rollback in barrier mode; vacuous seed")
			}
			if gotStats.Rollbacks == 0 {
				t.Fatal("overlap mode performed no rollback under the same kill schedule")
			}
			assertSameDomains(t, "kill", ref, got)
			if want, have := recoveryProjection(ref), recoveryProjection(got); want != have {
				t.Errorf("recovery projection differs:\nbarrier:\n%s\noverlap:\n%s", want, have)
			}
		})
	}
}

// TestOverlapCapsLadder walks the fig12 capability ladder: equivalence must
// hold on every rung (each exercises a different method mix — all-STAGED on
// +remote, COLOCATEDMEMCPY on +colo, PEERMEMCPY on +peer, KERNEL on full).
func TestOverlapCapsLadder(t *testing.T) {
	ladder := []struct {
		name string
		caps Capabilities
	}{
		{"+remote", CapsRemote()},
		{"+colo", CapsColo()},
		{"+peer", CapsPeer()},
		{"+kernel", CapsAll()},
	}
	for _, rung := range ladder {
		rung := rung
		t.Run(rung.name, func(t *testing.T) {
			base := overlapCfg(0)
			base.Capabilities = rung.caps
			offCfg, onCfg := base, base
			onCfg.Overlap = true
			ref, _ := overlapEquivRun(t, offCfg, overlapInc, overlapIters)
			got, _ := overlapEquivRun(t, onCfg, overlapInc, overlapIters)
			assertSameDomains(t, rung.name, ref, got)
		})
	}
}

// TestOverlapDeterminism asserts the within-mode contract: an overlap run is
// bit-identical — telemetry spans, event log, delivery counters, domain
// bytes — across reruns and across payload worker counts, with and without
// delivery faults.
func TestOverlapDeterminism(t *testing.T) {
	run := func(lossy bool, workers int) (*DistributedDomain, *Stats, *Telemetry) {
		cfg := overlapCfg(workers)
		cfg.Overlap = true
		cfg.Telemetry = NewTelemetry()
		if lossy {
			sc := &FaultScenario{Name: "overlap-det", Seed: 33}
			for n := 0; n < 2; n++ {
				sc.LossyNIC(0, n, 0.2, 0.2, 0.2)
			}
			cfg.Fault = sc
			cfg.SendRetries = 2
		}
		dd, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dd.Fill(chaosFill)
		stats := dd.Step(overlapIters, overlapInc)
		return dd, stats, cfg.Telemetry
	}
	for _, lossy := range []bool{false, true} {
		lossy := lossy
		t.Run(fmt.Sprintf("lossy=%v", lossy), func(t *testing.T) {
			ref, refStats, refTel := run(lossy, 0)
			want := domainFingerprints(ref)
			wantSpans, wantEv := spanFingerprint(refTel), eventBytes(t, refTel)
			for _, workers := range []int{0, 3} {
				dd, stats, tel := run(lossy, workers)
				if stats.Delivery != refStats.Delivery {
					t.Errorf("workers=%d: protocol counters differ: %+v vs %+v",
						workers, stats.Delivery, refStats.Delivery)
				}
				if got := spanFingerprint(tel); got != wantSpans {
					t.Errorf("workers=%d: span fingerprint differs from first run", workers)
				}
				if got := eventBytes(t, tel); !bytes.Equal(got, wantEv) {
					t.Errorf("workers=%d: event log differs from first run", workers)
				}
				got := domainFingerprints(dd)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("workers=%d: sub %v domain bytes differ from first run",
							workers, dd.Subdomains()[i].GlobalIndex())
					}
				}
			}
		})
	}
}

// TestOverlapEquivalenceQuick is the property-based sweep: random small
// configurations (neighborhood, radius, boundary, capability rung, loss)
// must all satisfy barrier/overlap byte-equivalence.
func TestOverlapEquivalenceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is not short")
	}
	prop := func(seed uint8, faceOnly, open, lossy bool) bool {
		cfg := overlapCfg(0)
		if faceOnly {
			cfg.Neighborhood = 6
		}
		cfg.OpenBoundary = open
		cfg.Radius = 1 + int(seed%2)
		switch seed % 4 {
		case 0:
			cfg.Capabilities = CapsRemote()
		case 1:
			cfg.Capabilities = CapsColo()
		case 2:
			cfg.Capabilities = CapsPeer()
		default:
			cfg.Capabilities = CapsAll()
		}
		if lossy {
			sc := &FaultScenario{Name: "overlap-quick", Seed: uint64(seed) + 1}
			for n := 0; n < 2; n++ {
				sc.LossyNIC(0, n, 0.15, 0.15, 0.15)
			}
			cfg.Fault = sc
			cfg.SendRetries = 2
		}
		offCfg, onCfg := cfg, cfg
		onCfg.Overlap = true
		iters := 3
		ref, _ := overlapEquivRun(t, offCfg, overlapInc, iters)
		got, _ := overlapEquivRun(t, onCfg, overlapInc, iters)
		want, have := domainFingerprints(ref), domainFingerprints(got)
		for i := range want {
			if have[i] != want[i] {
				t.Logf("seed=%d faceOnly=%v open=%v lossy=%v: sub %d diverged",
					seed, faceOnly, open, lossy, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestChaosLossyOverlap reruns the headline lossy-chaos acceptance test with
// the overlap pipeline on: kills, drops, corruption, duplication — final
// halos still byte-identical to fault-free, and the run bit-identical across
// reruns and worker counts.
func TestChaosLossyOverlap(t *testing.T) {
	seed := int64(1)
	run := func(workers int) (*DistributedDomain, *Stats, *Telemetry) {
		t.Helper()
		sc, desc := chaosSchedule(t, seed)
		sc.Seed = uint64(seed)
		for n := 0; n < 2; n++ {
			sc.LossyNIC(0, n, 0.2, 0.2, 0.2)
		}
		cfg := chaosCfg(workers)
		cfg.Overlap = true
		cfg.Fault = sc
		cfg.SendRetries = 2
		cfg.Telemetry = NewTelemetry()
		dd, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: lossy overlap chaos, kill schedule: %s", seed, desc)
		dd.Fill(chaosFill)
		stats := dd.Exchange(chaosIters)
		return dd, stats, cfg.Telemetry
	}

	dd, stats, tel := run(0)
	if bad, detail := dd.VerifyHalos(chaosFill); bad != 0 {
		t.Errorf("%d bad halo cells after lossy overlap chaos: %s", bad, detail)
	}
	fatal := 0
	for _, r := range dd.FaultLog() {
		if r.Kind == "gpu-fail" || r.Kind == "rank-fail" {
			fatal++
		}
	}
	if fatal == 0 {
		t.Fatal("no fatal fault applied; chaos schedule is vacuous")
	}
	d := stats.Delivery
	if d.Drops == 0 || d.Corrupts == 0 || d.Dups == 0 {
		t.Fatalf("delivery faults not exercised: %+v", d)
	}
	if d.Exhausted > 0 && stats.ReExchanges == 0 && stats.ForcedRepairs == 0 {
		t.Errorf("deliveries landed compromised (%d) but verification repaired nothing", d.Exhausted)
	}
	if stats.Rollbacks == 0 {
		t.Error("no rollback performed despite fatal kills")
	}

	want, wantEv := spanFingerprint(tel), eventBytes(t, tel)
	for _, workers := range []int{0, 3} {
		dd2, stats2, tel2 := run(workers)
		if stats2.Delivery != stats.Delivery {
			t.Errorf("workers=%d: protocol counters differ: %+v vs %+v",
				workers, stats2.Delivery, stats.Delivery)
		}
		if got := spanFingerprint(tel2); got != want {
			t.Errorf("workers=%d: span fingerprint differs from first run", workers)
		}
		if got := eventBytes(t, tel2); !bytes.Equal(got, wantEv) {
			t.Errorf("workers=%d: event log differs from first run", workers)
		}
		if bad, _ := dd2.VerifyHalos(chaosFill); bad != 0 {
			t.Errorf("workers=%d: %d bad halo cells", workers, bad)
		}
	}
}

// TestChaosLossyComputeOverlap is TestChaosLossyCompute with the pipeline
// on: interleaved compute under 20% drop/corrupt/dup, whole domain
// byte-identical to the fault-free barrier run.
func TestChaosLossyComputeOverlap(t *testing.T) {
	run := func(lossy, overlap bool, workers int) (*DistributedDomain, *Stats) {
		cfg := chaosCfg(workers)
		cfg.CheckpointEvery = 0
		cfg.Overlap = overlap
		if lossy {
			sc := &FaultScenario{Name: "lossy-compute-overlap", Seed: 13}
			for n := 0; n < 2; n++ {
				sc.LossyNIC(0, n, 0.2, 0.2, 0.2)
			}
			cfg.Fault = sc
			cfg.SendRetries = 2
		}
		dd, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dd.Fill(chaosFill)
		return dd, dd.Step(chaosIters, overlapInc)
	}

	ref, _ := run(false, false, 0)
	dd, stats := run(true, true, 0)
	d := stats.Delivery
	if d.Drops == 0 || d.Corrupts == 0 || d.Dups == 0 {
		t.Fatalf("delivery faults not exercised: %+v", d)
	}
	assertSameDomains(t, "workers=0", ref, dd)

	dd2, stats2 := run(true, true, 3)
	if stats2.Delivery != stats.Delivery {
		t.Errorf("workers=3: protocol counters differ: %+v vs %+v", stats2.Delivery, stats.Delivery)
	}
	assertSameDomains(t, "workers=3", ref, dd2)
}
