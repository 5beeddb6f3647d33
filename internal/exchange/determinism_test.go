package exchange

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/nodeaware/stencil/internal/cudart"
	"github.com/nodeaware/stencil/internal/fault"
	"github.com/nodeaware/stencil/internal/part"
	"github.com/nodeaware/stencil/internal/sim"
)

// detResult captures everything observable about a run that the determinism
// guarantee covers: final halo bytes, virtual times, adaptation and fault
// timelines, and the recorded op trace.
type detResult struct {
	virt   sim.Time
	iters  []sim.Time
	fps    []uint64 // per-subdomain Domain fingerprints, in Subs order
	adapt  []string
	faults []string
	trace  []cudart.OpRecord
}

func runDeterministic(t *testing.T, workers int, caps Capabilities, cudaAware bool) detResult {
	t.Helper()
	opts := Options{
		Nodes:        2,
		RanksPerNode: 3,
		Domain:       part.Dim3{X: 24, Y: 24, Z: 24},
		Radius:       1,
		Quantities:   2,
		ElemSize:     4,
		Caps:         caps,
		CUDAAware:    cudaAware,
		NodeAware:    true,
		RealData:     true,
		Workers:      workers,
		Adaptive:     true,
		TraceOps:     true,
		Fault: (&fault.Scenario{Name: "det"}).
			KillNVLink(30e-6, 0, 0, 1, 60e-6).
			DegradeNIC(50e-6, 1, 0.25),
	}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	fillGlobal(e)
	st := e.Run(4)
	res := detResult{virt: e.Eng.Now(), iters: st.Iterations, trace: e.Trace}
	for _, s := range e.Subs {
		res.fps = append(res.fps, s.Dom.Fingerprint())
	}
	for _, r := range st.AdaptEvents {
		res.adapt = append(res.adapt, r.String())
	}
	for _, r := range st.FaultLog {
		res.faults = append(res.faults, r.String())
	}
	return res
}

func diffResults(t *testing.T, label string, a, b detResult) {
	t.Helper()
	if a.virt != b.virt {
		t.Errorf("%s: final virtual time differs: %v vs %v", label, a.virt, b.virt)
	}
	if !reflect.DeepEqual(a.iters, b.iters) {
		t.Errorf("%s: iteration times differ:\n  %v\n  %v", label, a.iters, b.iters)
	}
	if !reflect.DeepEqual(a.fps, b.fps) {
		t.Errorf("%s: halo fingerprints differ:\n  %x\n  %x", label, a.fps, b.fps)
	}
	if !reflect.DeepEqual(a.adapt, b.adapt) {
		t.Errorf("%s: adaptation logs differ:\n  %v\n  %v", label, a.adapt, b.adapt)
	}
	if !reflect.DeepEqual(a.faults, b.faults) {
		t.Errorf("%s: fault logs differ:\n  %v\n  %v", label, a.faults, b.faults)
	}
	if !reflect.DeepEqual(a.trace, b.trace) {
		t.Errorf("%s: op traces differ (%d vs %d ops)", label, len(a.trace), len(b.trace))
	}
}

// TestParallelDeterminism is the determinism regression gate for the parallel
// payload executor: the same configuration run sequentially (Workers 0) and
// in parallel (Workers 8), twice each, must produce byte-identical halos
// (Domain fingerprints), identical virtual times, and identical fault, adapt,
// and op-trace records. It covers every rung of the paper's capability
// ladder (each moves a different payload mix: host MPI copies, staged
// copies, peer copies, kernels) plus CUDA-aware MPI. Run under -race in CI,
// this also shakes out data races between payload components.
func TestParallelDeterminism(t *testing.T) {
	check := func(t *testing.T, caps Capabilities, ca bool) {
		seq1 := runDeterministic(t, 0, caps, ca)
		seq2 := runDeterministic(t, 0, caps, ca)
		par1 := runDeterministic(t, 8, caps, ca)
		par2 := runDeterministic(t, 8, caps, ca)
		diffResults(t, "sequential repeat", seq1, seq2)
		diffResults(t, "parallel repeat", par1, par2)
		diffResults(t, "sequential vs parallel", seq1, par1)
		if len(seq1.fps) == 0 {
			t.Fatal("no subdomains fingerprinted")
		}
		// Sanity: the run did real work (non-trivial trace, nonzero time).
		if seq1.virt <= 0 || len(seq1.trace) == 0 {
			t.Fatalf("degenerate run: virt=%v ops=%d", seq1.virt, len(seq1.trace))
		}
	}
	t.Run("ladder", func(t *testing.T) {
		for _, caps := range []Capabilities{CapsRemote(), CapsColo(), CapsPeer(), CapsAll()} {
			t.Run(Options{Caps: caps}.CapsString(), func(t *testing.T) { check(t, caps, false) })
		}
	})
	t.Run("cudaaware", func(t *testing.T) { check(t, CapsRemote(), true) })
}

// TestParallelVerifiesHalos re-checks functional halo correctness under the
// parallel executor (the determinism test proves parallel == sequential; this
// proves both are right).
func TestParallelVerifiesHalos(t *testing.T) {
	opts := smallOpts(6, CapsAll(), false)
	opts.Workers = 8
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	fillGlobal(e)
	if e.Eng.Workers() != 8 {
		t.Fatalf("engine workers = %d, want 8", e.Eng.Workers())
	}
	st := e.Run(2)
	if st.Mean() <= 0 {
		t.Error("exchange took no time")
	}
	verifyHalos(t, e)
}

// TestWorkersAcrossLadder runs every capability rung with workers enabled and
// verifies halos — each rung exercises a different payload mix (kernels,
// peer copies, staged copies, host MPI copies).
func TestWorkersAcrossLadder(t *testing.T) {
	for _, tc := range []struct {
		caps Capabilities
		ca   bool
	}{
		{CapsRemote(), false},
		{CapsColo(), false},
		{CapsPeer(), false},
		{CapsAll(), false},
		{CapsRemote(), true},
	} {
		name := fmt.Sprintf("caps=%v ca=%v", tc.caps, tc.ca)
		t.Run(name, func(t *testing.T) {
			opts := smallOpts(3, tc.caps, tc.ca)
			opts.Workers = 4
			e, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			fillGlobal(e)
			e.Run(1)
			verifyHalos(t, e)
		})
	}
}
