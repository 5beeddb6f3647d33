package exchange

import (
	"encoding/binary"
	"testing"

	"github.com/nodeaware/stencil/internal/part"
)

// smallOpts builds a real-data single-node configuration for correctness
// tests.
func smallOpts(ranks int, caps Capabilities, cudaAware bool) Options {
	return Options{
		Nodes:        1,
		RanksPerNode: ranks,
		Domain:       part.Dim3{X: 24, Y: 18, Z: 12},
		Radius:       1,
		Quantities:   2,
		ElemSize:     4,
		Caps:         caps,
		CUDAAware:    cudaAware,
		NodeAware:    true,
		RealData:     true,
	}
}

// fillGlobal writes a unique value derived from the global coordinate into
// every interior cell of every subdomain.
func fillGlobal(e *Exchanger) {
	for _, sub := range e.Subs {
		origin, size := e.Hier.Subdomain(sub.NodeIdx, sub.GPUIdx)
		for q := 0; q < sub.Dom.Quantities; q++ {
			for z := 0; z < size.Z; z++ {
				for y := 0; y < size.Y; y++ {
					for x := 0; x < size.X; x++ {
						v := globalValue(e, q, origin.X+x, origin.Y+y, origin.Z+z)
						binary.LittleEndian.PutUint32(sub.Dom.At(q, x, y, z), v)
					}
				}
			}
		}
	}
}

func globalValue(e *Exchanger, q, x, y, z int) uint32 {
	d := e.Opts.Domain
	return uint32(q+1)*0x01000000 + uint32((z*d.Y+y)*d.X+x)
}

// verifyHalos checks that after an exchange every halo cell of every
// subdomain holds the periodic-neighbor interior value.
func verifyHalos(t *testing.T, e *Exchanger) {
	t.Helper()
	d := e.Opts.Domain
	wrap := func(v, n int) int { return ((v % n) + n) % n }
	bad := 0
	for _, sub := range e.Subs {
		origin, size := e.Hier.Subdomain(sub.NodeIdx, sub.GPUIdx)
		r := sub.Dom.Radius
		for q := 0; q < sub.Dom.Quantities; q++ {
			for z := -r; z < size.Z+r; z++ {
				for y := -r; y < size.Y+r; y++ {
					for x := -r; x < size.X+r; x++ {
						interior := x >= 0 && x < size.X && y >= 0 && y < size.Y && z >= 0 && z < size.Z
						if interior {
							continue
						}
						gx, gy, gz := wrap(origin.X+x, d.X), wrap(origin.Y+y, d.Y), wrap(origin.Z+z, d.Z)
						want := globalValue(e, q, gx, gy, gz)
						got := binary.LittleEndian.Uint32(sub.Dom.At(q, x, y, z))
						if got != want {
							bad++
							if bad <= 5 {
								t.Errorf("sub %v halo (%d,%d,%d) q%d = %#x, want %#x (global %d,%d,%d)",
									sub.Global, x, y, z, q, got, want, gx, gy, gz)
							}
						}
					}
				}
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d bad halo cells", bad)
	}
}

func TestExchangeCorrectnessAllCapLevels(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ranks int
		caps  Capabilities
		ca    bool
	}{
		{"staged-1rank", 1, CapsRemote(), false},
		{"staged-2ranks", 2, CapsRemote(), false},
		{"staged-6ranks", 6, CapsRemote(), false},
		{"colo-6ranks", 6, CapsColo(), false},
		{"peer-6ranks", 6, CapsPeer(), false},
		{"kernel-6ranks", 6, CapsAll(), false},
		{"kernel-1rank", 1, CapsAll(), false},
		{"kernel-2ranks", 2, CapsAll(), false},
		{"cudaaware-6ranks", 6, CapsRemote(), true},
		{"cudaaware-all-6ranks", 6, CapsAll(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(smallOpts(tc.ranks, tc.caps, tc.ca))
			if err != nil {
				t.Fatal(err)
			}
			fillGlobal(e)
			st := e.Run(1)
			if st.Mean() <= 0 {
				t.Error("exchange took no time")
			}
			verifyHalos(t, e)
		})
	}
}

func TestExchangeCorrectnessMultiNode(t *testing.T) {
	opts := Options{
		Nodes:        4,
		RanksPerNode: 6,
		Domain:       part.Dim3{X: 24, Y: 24, Z: 24},
		Radius:       2,
		Quantities:   1,
		ElemSize:     4,
		Caps:         CapsAll(),
		NodeAware:    true,
		RealData:     true,
	}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	fillGlobal(e)
	e.Run(1)
	verifyHalos(t, e)
}

func TestExchangeCorrectnessRepeatedIterations(t *testing.T) {
	// Re-running the exchange must remain correct (buffers and matching are
	// reused across iterations).
	e, err := New(smallOpts(6, CapsAll(), false))
	if err != nil {
		t.Fatal(err)
	}
	fillGlobal(e)
	st := e.Run(3)
	if len(st.Iterations) != 3 {
		t.Fatalf("iterations = %d", len(st.Iterations))
	}
	verifyHalos(t, e)
}

func TestMethodSelectionLadder(t *testing.T) {
	// 6 GPUs on one node, 2 ranks: grid [3 2 1]. Verify first-applicable
	// selection at each rung.
	base := smallOpts(2, CapsRemote(), false)
	base.RealData = false

	// +remote only: everything is STAGED.
	e, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range e.Plans {
		if p.Method != MethodStaged {
			t.Fatalf("remote-only plan uses %v", p.Method)
		}
	}

	// +colo: cross-rank same-node plans become COLOCATEDMEMCPY; same-rank
	// plans stay STAGED.
	base.Caps = CapsColo()
	e, err = New(base)
	if err != nil {
		t.Fatal(err)
	}
	seenColo, seenStaged := false, false
	for _, p := range e.Plans {
		switch {
		case p.Src.Rank != p.Dst.Rank:
			if p.Method != MethodColocated {
				t.Fatalf("cross-rank plan uses %v", p.Method)
			}
			seenColo = true
		default:
			if p.Method != MethodStaged {
				t.Fatalf("same-rank plan uses %v", p.Method)
			}
			seenStaged = true
		}
	}
	if !seenColo || !seenStaged {
		t.Fatal("expected both colocated and staged plans at +colo")
	}

	// +peer: same-rank cross-GPU (and self) plans become PEERMEMCPY.
	base.Caps = CapsPeer()
	e, err = New(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range e.Plans {
		if p.Src.Rank == p.Dst.Rank && p.Method != MethodPeer {
			t.Fatalf("same-rank plan uses %v at +peer", p.Method)
		}
	}

	// +kernel: self-exchanges become KERNEL.
	base.Caps = CapsAll()
	e, err = New(base)
	if err != nil {
		t.Fatal(err)
	}
	kernels := 0
	for _, p := range e.Plans {
		if p.Src == p.Dst {
			if p.Method != MethodKernel {
				t.Fatalf("self plan uses %v at +kernel", p.Method)
			}
			kernels++
		}
	}
	// Grid [3 2 1]: z has extent 1, so all z-involving directions wrap to
	// self; every sub has self plans.
	if kernels == 0 {
		t.Fatal("no kernel self-exchanges found")
	}
}

func TestCudaAwareSelectsRemoteMethod(t *testing.T) {
	opts := smallOpts(6, CapsRemote(), true)
	opts.RealData = false
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range e.Plans {
		if p.Method != MethodCudaAware {
			t.Fatalf("CUDA-aware remote-only plan uses %v", p.Method)
		}
	}
}

func TestPlanCountAndBytes(t *testing.T) {
	opts := smallOpts(6, CapsAll(), false)
	opts.RealData = false
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Plans) != 6*26 {
		t.Errorf("plans = %d, want %d", len(e.Plans), 6*26)
	}
	for _, p := range e.Plans {
		if p.Bytes != p.Src.Dom.HaloBytes(p.Dir) {
			t.Errorf("plan %d bytes %d != halo bytes", p.ID, p.Bytes)
		}
		if p.Bytes <= 0 {
			t.Errorf("plan %d has no bytes", p.ID)
		}
	}
}

func TestFaceOnlyMode(t *testing.T) {
	opts := smallOpts(6, CapsAll(), false)
	opts.Neighborhood = 6
	opts.RealData = false
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Plans) != 6*6 {
		t.Errorf("face-only plans = %d, want 36", len(e.Plans))
	}
}

func TestSpecializationLadderPerformance(t *testing.T) {
	// The paper's Fig 12a ordering at 6 ranks: each capability rung is at
	// least as fast as the previous, and +peer/+kernel beat STAGED by a
	// large factor.
	run := func(caps Capabilities) float64 {
		opts := Options{
			Nodes:        1,
			RanksPerNode: 6,
			Domain:       part.Dim3{X: 1362, Y: 1362, Z: 1362},
			Radius:       2,
			Quantities:   4,
			ElemSize:     4,
			Caps:         caps,
			NodeAware:    true,
		}
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return e.Run(2).Min()
	}
	staged := run(CapsRemote())
	colo := run(CapsColo())
	peer := run(CapsPeer())
	kernel := run(CapsAll())
	t.Logf("staged=%.3fms colo=%.3fms peer=%.3fms kernel=%.3fms speedup=%.1fx",
		staged*1e3, colo*1e3, peer*1e3, kernel*1e3, staged/kernel)
	if !(colo <= staged && peer <= colo*1.001 && kernel <= peer*1.001) {
		t.Errorf("ladder not monotone: %g %g %g %g", staged, colo, peer, kernel)
	}
	if staged/kernel < 3 {
		t.Errorf("specialization speedup %.2fx too small (paper: ~6x)", staged/kernel)
	}
}

func TestNodeAwarePlacementFasterOnFig11Scenario(t *testing.T) {
	run := func(aware bool) float64 {
		opts := Options{
			Nodes:        1,
			RanksPerNode: 6,
			Domain:       part.Dim3{X: 1440, Y: 1452, Z: 700},
			Radius:       2,
			Quantities:   4,
			ElemSize:     4,
			Caps:         CapsAll(),
			NodeAware:    aware,
		}
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return e.Run(2).Min()
	}
	aware := run(true)
	trivial := run(false)
	t.Logf("aware=%.3fms trivial=%.3fms speedup=%.3fx", aware*1e3, trivial*1e3, trivial/aware)
	if aware >= trivial {
		t.Errorf("node-aware placement (%.4f) not faster than trivial (%.4f)", aware, trivial)
	}
}

func TestStagedRanksScaling(t *testing.T) {
	// Fig 12a: with STAGED only, more ranks per node is faster (more
	// progress engines doing the shared-memory copies).
	run := func(ranks int) float64 {
		opts := Options{
			Nodes:        1,
			RanksPerNode: ranks,
			Domain:       part.Dim3{X: 1362, Y: 1362, Z: 1362},
			Radius:       2,
			Quantities:   4,
			ElemSize:     4,
			Caps:         CapsRemote(),
			NodeAware:    true,
		}
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return e.Run(2).Min()
	}
	r1, r2, r6 := run(1), run(2), run(6)
	t.Logf("staged 1r=%.3fms 2r=%.3fms 6r=%.3fms", r1*1e3, r2*1e3, r6*1e3)
	if !(r6 < r2 && r2 < r1) {
		t.Errorf("staged should speed up with ranks: 1r=%g 2r=%g 6r=%g", r1, r2, r6)
	}
}

func TestStatsAccounting(t *testing.T) {
	opts := smallOpts(6, CapsAll(), false)
	opts.RealData = false
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(2)
	total := 0
	for _, c := range st.MethodCount {
		total += c
	}
	if total != len(e.Plans) {
		t.Errorf("method counts %d != plans %d", total, len(e.Plans))
	}
	var bytes int64
	for _, b := range st.MethodBytes {
		bytes += b
	}
	if bytes != st.TotalBytes {
		t.Errorf("method bytes %d != total %d", bytes, st.TotalBytes)
	}
	if st.Min() > st.Mean() || st.Mean() > st.Max() {
		t.Error("min/mean/max ordering violated")
	}
	if st.String() == "" || opts.ConfigString() == "" {
		t.Error("empty renderings")
	}
}

func TestConfigStrings(t *testing.T) {
	o := Options{Nodes: 2, RanksPerNode: 6, Domain: part.Dim3{X: 750, Y: 750, Z: 750}, CUDAAware: true}
	if got := o.ConfigString(); got != "2n/6r/6g/750/ca" {
		t.Errorf("ConfigString = %q", got)
	}
	o.Caps = CapsPeer()
	if got := o.CapsString(); got != "+peer" {
		t.Errorf("CapsString = %q", got)
	}
	o.Caps = CapsAll()
	if got := o.CapsString(); got != "+kernel" {
		t.Errorf("CapsString = %q", got)
	}
}

func TestTraceCollection(t *testing.T) {
	e, err := New(smallOpts(2, CapsAll(), false))
	if err != nil {
		t.Fatal(err)
	}
	ops := recordOps(e)
	fillGlobal(e)
	e.Run(1)
	if len(*ops) == 0 {
		t.Fatal("no ops traced")
	}
	// Trace must contain kernels and at least one copy.
	kinds := make(map[string]bool)
	for _, r := range *ops {
		kinds[r.Kind.String()] = true
		if r.End < r.Start {
			t.Errorf("op %s ends before start", r.Name)
		}
	}
	if !kinds["kernel"] {
		t.Error("no kernels in trace")
	}
}

func TestInvalidOptions(t *testing.T) {
	if _, err := New(Options{Nodes: 0, RanksPerNode: 1, Domain: part.Dim3{X: 8, Y: 8, Z: 8}, Radius: 1, Quantities: 1, ElemSize: 4}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(Options{Nodes: 1, RanksPerNode: 4, Domain: part.Dim3{X: 8, Y: 8, Z: 8}, Radius: 1, Quantities: 1, ElemSize: 4}); err == nil {
		t.Error("4 ranks over 6 GPUs accepted")
	}
	if _, err := New(Options{Nodes: 64, RanksPerNode: 1, Domain: part.Dim3{X: 2, Y: 2, Z: 2}, Radius: 1, Quantities: 1, ElemSize: 4}); err == nil {
		t.Error("oversplit domain accepted")
	}
	if _, err := New(Options{Nodes: 1, RanksPerNode: 1, Domain: part.Dim3{X: 8, Y: 8, Z: 8}, Radius: 0, Quantities: 1, ElemSize: 4}); err == nil {
		t.Error("zero radius accepted")
	}
}

// The per-iteration rendezvous state (COLOCATEDMEMCPY slots, aggregated
// message groups) is freed at each iteration's safe point: over a long run
// neither map holds more than two iterations' entries at any safe point,
// and the halos still land correctly.
func TestRendezvousStateBounded(t *testing.T) {
	opts := Options{
		Nodes: 8, RanksPerNode: 2, Domain: part.Dim3{X: 48, Y: 24, Z: 24},
		Radius: 1, Quantities: 1, ElemSize: 4, Caps: CapsColo(), NodeAware: true,
		RealData: true, AggregateRemote: true,
	}
	var e *Exchanger
	var polls, maxSlots, maxGroups int
	opts.Preempt = func() bool { // polled by the coordinator at each safe point
		polls++
		maxSlots = max(maxSlots, len(e.slots))
		maxGroups = max(maxGroups, len(e.groupStates))
		return false
	}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	colocated := e.MethodCounts()[MethodColocated]
	if colocated == 0 || len(e.groups) == 0 {
		t.Fatalf("configuration has %d colocated plans and %d groups; the test needs both", colocated, len(e.groups))
	}
	fillGlobal(e)
	const iters = 20
	e.Run(iters)
	if polls != iters {
		t.Fatalf("%d safe points, want %d", polls, iters)
	}
	if maxSlots == 0 || maxSlots > 2*colocated {
		t.Errorf("slots peaked at %d entries, want 1 to %d (two iterations of %d colocated plans)", maxSlots, 2*colocated, colocated)
	}
	if maxGroups == 0 || maxGroups > 2*len(e.groups) {
		t.Errorf("group states peaked at %d entries, want 1 to %d (two iterations of %d groups)", maxGroups, 2*len(e.groups), len(e.groups))
	}
	if len(e.slots) != 0 || len(e.groupStates) != 0 {
		t.Errorf("%d slots and %d group states left after the run", len(e.slots), len(e.groupStates))
	}
	verifyHalos(t, e)
}
