package exchange

import (
	"math"
	"reflect"
	"testing"

	"github.com/nodeaware/stencil/internal/cudart"
	"github.com/nodeaware/stencil/internal/fault"
	"github.com/nodeaware/stencil/internal/machine"
	"github.com/nodeaware/stencil/internal/nvml"
	"github.com/nodeaware/stencil/internal/part"
	"github.com/nodeaware/stencil/internal/placement"
	"github.com/nodeaware/stencil/internal/sim"
)

func memoOpts(nodes int, domain part.Dim3) Options {
	return Options{
		Nodes: nodes, RanksPerNode: 2, Domain: domain,
		Radius: 1, Quantities: 2, ElemSize: 4, Caps: CapsAll(), NodeAware: true,
	}
}

// freshAssignments solves every node's placement on its own, as New did
// before it shared solves between equal nodes.
func freshAssignments(e *Exchanger) []*placement.Assignment {
	var measured [][]float64
	if e.Opts.EmpiricalPlacement {
		// The microbenchmark on a machine of its own: it is deterministic
		// and node 0's links carry no other traffic during setup.
		m := machine.New(sim.NewEngine(), 1, e.M.Nodes[0].Config, e.M.Params)
		measured = nvml.MeasureBandwidth(cudart.NewRuntime(m, false), 0, 64<<20).Bandwidth
	}
	out := make([]*placement.Assignment, e.Opts.Nodes)
	for n := range out {
		bw := measured
		if bw == nil {
			bw = nvml.Discover(e.M.Nodes[n]).Bandwidth
		}
		out[n] = placement.PlaceBoundary(e.Hier, e.Hier.NodeIndex(n), bw, e.Opts.Radius,
			e.Opts.Quantities, e.Opts.ElemSize, e.Opts.NodeAware, e.Opts.OpenBoundary)
	}
	return out
}

func sameAssignment(a, b *placement.Assignment) bool {
	return reflect.DeepEqual(a.SubToGPU, b.SubToGPU) && reflect.DeepEqual(a.GPUToSub, b.GPUToSub) &&
		math.Float64bits(a.Cost) == math.Float64bits(b.Cost)
}

// TestPlacementMemoMatchesPerNodeSolves: New solves each distinct node
// problem once, so every node's assignment must equal a fresh per-node
// solve (permutation and cost bits), and a run must take the same virtual
// time as one whose placement is injected from those fresh solves.
func TestPlacementMemoMatchesPerNodeSolves(t *testing.T) {
	cube := func(edge int) part.Dim3 { return part.Dim3{X: edge, Y: edge, Z: edge} }
	cases := []struct {
		name  string
		opts  Options
		iters int // 0: compare assignments only
	}{
		{"1 node", memoOpts(1, cube(48)), 2},
		{"2 nodes", memoOpts(2, cube(48)), 2},
		{"8 nodes", memoOpts(8, cube(64)), 2},
		{"64 nodes fig12b", fig12bOpts(64), 0},
		{"uneven edge", memoOpts(8, part.Dim3{X: 61, Y: 47, Z: 37}), 2},
		{"open boundary", func() Options { o := memoOpts(2, cube(48)); o.OpenBoundary = true; return o }(), 2},
		{"node-aware off", func() Options { o := memoOpts(8, cube(64)); o.NodeAware = false; return o }(), 2},
		{"empirical placement", func() Options { o := memoOpts(2, cube(48)); o.EmpiricalPlacement = true; return o }(), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := New(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			fresh := freshAssignments(e)
			distinct := map[*placement.Assignment]bool{}
			for n, a := range e.Assignments {
				distinct[a] = true
				if !sameAssignment(a, fresh[n]) {
					t.Fatalf("node %d: memoized %v (cost %v), fresh solve %v (cost %v)",
						n, a.SubToGPU, a.Cost, fresh[n].SubToGPU, fresh[n].Cost)
				}
			}
			t.Logf("%d nodes, %d distinct placement problems", len(e.Assignments), len(distinct))
			if c.iters == 0 {
				return
			}
			preset := c.opts
			for _, a := range fresh {
				preset.PresetPlacement = append(preset.PresetPlacement, a.SubToGPU)
			}
			ref, err := New(preset)
			if err != nil {
				t.Fatal(err)
			}
			got, want := e.Run(c.iters).Iterations, ref.Run(c.iters).Iterations
			if !reflect.DeepEqual(bitsOf(got), bitsOf(want)) {
				t.Errorf("virtual times %v, with fresh per-node placements %v", got, want)
			}
		})
	}
}

// TestPlacementMemoSurvivesReplacement degrades an NVLink on node 0 of a job
// whose two nodes share one memoized assignment. AdaptPlacement re-places
// node 0 against the degraded matrix; node 1's assignment, the shared one,
// must be left exactly as it was.
func TestPlacementMemoSurvivesReplacement(t *testing.T) {
	o := memoOpts(2, part.Dim3{X: 48, Y: 48, Z: 48})
	o.RealData = true
	o.Adaptive, o.AdaptPlacement = true, true
	e, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if e.Assignments[0] != e.Assignments[1] {
		t.Fatal("the two nodes pose one placement problem but got separate solves")
	}
	before := *e.Assignments[1]
	before.SubToGPU = append([]int(nil), before.SubToGPU...)
	before.GPUToSub = append([]int(nil), before.GPUToSub...)
	var pl *Plan
	for _, p := range e.Plans {
		if p.Method == MethodPeer && p.Src.NodeID == 0 && p.Src.Dev != p.Dst.Dev &&
			e.M.Nodes[0].SameTriad(p.Src.LocalGPU, p.Dst.LocalGPU) {
			pl = p
			break
		}
	}
	if pl == nil {
		t.Fatal("no NVLink-crossing PEERMEMCPY plan on node 0")
	}
	e.Faults = fault.NewInjector(e.M, e.RT, e.W)
	if err := e.Faults.Install((&fault.Scenario{Name: "degrade"}).Add(fault.Event{
		At: 50e-6, Kind: fault.LinkDegrade, Factor: 0.02,
		Target: fault.Target{Node: 0, Kind: fault.TargetNVLink, A: pl.Src.LocalGPU, B: pl.Dst.LocalGPU},
	})); err != nil {
		t.Fatal(err)
	}
	fillGlobal(e)
	e.Run(8)
	verifyHalos(t, e)
	if e.Assignments[0] == e.Assignments[1] {
		t.Fatal("node 0 was not re-placed under persistent degradation")
	}
	if !sameAssignment(e.Assignments[1], &before) {
		t.Errorf("node 1's shared assignment changed: %+v, was %+v", *e.Assignments[1], before)
	}
	// Node 0's new assignment is a fresh solve against the live, degraded
	// bandwidth matrix.
	if fresh := freshAssignments(e)[0]; !sameAssignment(e.Assignments[0], fresh) {
		t.Errorf("node 0 re-placed to %v (cost %v), fresh solve %v (cost %v)",
			e.Assignments[0].SubToGPU, e.Assignments[0].Cost, fresh.SubToGPU, fresh.Cost)
	}
}
