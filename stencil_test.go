package stencil

import (
	"math"
	"strings"
	"testing"
)

func smallConfig() Config {
	return Config{
		Nodes:        1,
		RanksPerNode: 6,
		Domain:       Dim3{X: 24, Y: 18, Z: 12},
		Radius:       1,
		Quantities:   1,
		Capabilities: CapsAll(),
		RealData:     true,
	}
}

func TestNewAndExchange(t *testing.T) {
	dd, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if dd.NumSubdomains() != 6 {
		t.Fatalf("subdomains = %d, want 6", dd.NumSubdomains())
	}
	st := dd.Exchange(2)
	if len(st.Iterations) != 2 || st.Mean() <= 0 {
		t.Errorf("bad stats: %+v", st.Iterations)
	}
}

func TestSubdomainAccessors(t *testing.T) {
	dd, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	subs := dd.Subdomains()
	if len(subs) != 6 {
		t.Fatalf("len(subs) = %d", len(subs))
	}
	seenGPU := make(map[[2]int]bool)
	var totalVol int
	for _, s := range subs {
		node, gpu := s.GPU()
		key := [2]int{node, gpu}
		if seenGPU[key] {
			t.Errorf("GPU %v assigned twice", key)
		}
		seenGPU[key] = true
		if s.Rank() < 0 || s.Rank() >= 6 {
			t.Errorf("rank %d out of range", s.Rank())
		}
		totalVol += s.Size.Vol()
		s.Set(0, 0, 0, 0, 3.25)
		if got := s.Get(0, 0, 0, 0); got != 3.25 {
			t.Errorf("Get after Set = %g", got)
		}
	}
	if totalVol != 24*18*12 {
		t.Errorf("subdomain volumes sum to %d, want %d", totalVol, 24*18*12)
	}
}

func TestMethodBreakdown(t *testing.T) {
	dd, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	mb := dd.MethodBreakdown()
	total := 0
	for _, c := range mb {
		total += c
	}
	if total != 6*26 {
		t.Errorf("total plans = %d, want 156", total)
	}
	if mb[MethodStaged] != 0 {
		t.Errorf("fully specialized single-node job still has %d staged plans", mb[MethodStaged])
	}
}

func TestPlacementImprovementExposed(t *testing.T) {
	cfg := Config{
		Nodes:        1,
		RanksPerNode: 6,
		Domain:       Dim3{X: 1440, Y: 1452, Z: 700},
		Radius:       2,
		Quantities:   4,
		Capabilities: CapsAll(),
	}
	dd, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	imp := dd.PlacementImprovement(0)
	if imp < 0.05 || imp > 0.6 {
		t.Errorf("placement improvement = %.3f, expected a solid win on the Fig 11 scenario", imp)
	}
}

func TestStepRunsCompute(t *testing.T) {
	dd, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Initialize quantity 0 to the subdomain's rank, then one step averaging
	// each cell with itself (identity) to prove compute executes per sub.
	calls := 0
	dd.Step(2, func(s *Subdomain) { calls++ })
	if calls != 2*6 {
		t.Errorf("compute calls = %d, want 12", calls)
	}
}

// TestJacobiConvergence runs a real 7-point Jacobi relaxation across the
// simulated cluster and verifies it matches a serial reference to the last
// bit — the end-to-end proof that partitioning, placement, and all transfer
// methods move the right bytes.
func TestJacobiConvergence(t *testing.T) {
	const (
		nx, ny, nz = 12, 12, 12
		steps      = 5
	)
	cfg := Config{
		Nodes:        2,
		RanksPerNode: 3,
		Domain:       Dim3{X: nx, Y: ny, Z: nz},
		Radius:       1,
		Quantities:   2, // 0: current, 1: next
		Capabilities: CapsAll(),
		RealData:     true,
	}
	dd, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Reference grid with periodic boundaries.
	ref := make([]float64, nx*ny*nz)
	idx := func(x, y, z int) int {
		wrap := func(v, n int) int { return ((v % n) + n) % n }
		return (wrap(z, nz)*ny+wrap(y, ny))*nx + wrap(x, nx)
	}
	init := func(x, y, z int) float32 {
		return float32(math.Sin(float64(x)) + math.Cos(float64(y)*2) + float64(z)*0.1)
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				ref[idx(x, y, z)] = float64(init(x, y, z))
			}
		}
	}
	for _, s := range dd.Subdomains() {
		for z := 0; z < s.Size.Z; z++ {
			for y := 0; y < s.Size.Y; y++ {
				for x := 0; x < s.Size.X; x++ {
					s.Set(0, x, y, z, init(s.Origin.X+x, s.Origin.Y+y, s.Origin.Z+z))
				}
			}
		}
	}

	jacobi := func(s *Subdomain) {
		for z := 0; z < s.Size.Z; z++ {
			for y := 0; y < s.Size.Y; y++ {
				for x := 0; x < s.Size.X; x++ {
					avg := (s.Get(0, x-1, y, z) + s.Get(0, x+1, y, z) +
						s.Get(0, x, y-1, z) + s.Get(0, x, y+1, z) +
						s.Get(0, x, y, z-1) + s.Get(0, x, y, z+1) +
						s.Get(0, x, y, z)) / 7
					s.Set(1, x, y, z, avg)
				}
			}
		}
		// Swap: copy next into current for the following exchange.
		for z := 0; z < s.Size.Z; z++ {
			for y := 0; y < s.Size.Y; y++ {
				for x := 0; x < s.Size.X; x++ {
					s.Set(0, x, y, z, s.Get(1, x, y, z))
				}
			}
		}
	}

	refStep := func() {
		next := make([]float64, len(ref))
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					avg := (ref[idx(x-1, y, z)] + ref[idx(x+1, y, z)] +
						ref[idx(x, y-1, z)] + ref[idx(x, y+1, z)] +
						ref[idx(x, y, z-1)] + ref[idx(x, y, z+1)] +
						ref[idx(x, y, z)])
					next[idx(x, y, z)] = float64(float32(float32(avg) / 7))
				}
			}
		}
		ref = next
	}

	for s := 0; s < steps; s++ {
		dd.Step(1, jacobi)
		refStep()
	}

	var maxDiff float64
	for _, s := range dd.Subdomains() {
		for z := 0; z < s.Size.Z; z++ {
			for y := 0; y < s.Size.Y; y++ {
				for x := 0; x < s.Size.X; x++ {
					got := float64(s.Get(0, x, y, z))
					want := ref[idx(s.Origin.X+x, s.Origin.Y+y, s.Origin.Z+z)]
					if d := math.Abs(got - want); d > maxDiff {
						maxDiff = d
					}
				}
			}
		}
	}
	// float32 rounding differences between the two accumulation orders stay
	// tiny over 5 steps.
	if maxDiff > 1e-5 {
		t.Errorf("distributed Jacobi diverged from serial reference by %g", maxDiff)
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("empty config validated")
	}
	if err := smallConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := smallConfig()
	bad.Radius = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero radius validated")
	}
}

// TestRealDataNeedsFourByteCells: real-data cells hold a float32, so New and
// Validate reject RealData with ElemSize below 4 instead of letting Fill,
// Get, Set and VerifyHalos index past a short cell; time-only runs and
// wider cells stay legal.
func TestRealDataNeedsFourByteCells(t *testing.T) {
	for _, es := range []int{1, 2, 3} {
		cfg := smallConfig()
		cfg.ElemSize = es
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "ElemSize") {
			t.Errorf("ElemSize %d: Validate error %v, want one naming ElemSize", es, err)
		}
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "ElemSize") {
			t.Errorf("ElemSize %d: New error %v, want one naming ElemSize", es, err)
		}
		cfg.RealData = false
		if err := cfg.Validate(); err != nil {
			t.Errorf("time-only ElemSize %d rejected: %v", es, err)
		}
	}
	cfg := smallConfig()
	cfg.ElemSize = 8
	if err := cfg.Validate(); err != nil {
		t.Errorf("ElemSize 8 rejected: %v", err)
	}
}

func TestTraceExposed(t *testing.T) {
	cfg := smallConfig()
	cfg.Telemetry = NewTelemetry()
	dd, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dd.Exchange(1)
	tr := cfg.Telemetry.Ops()
	if len(tr) == 0 {
		t.Fatal("no trace records")
	}
	for _, op := range tr {
		if op.End < op.Start || op.Kind == "" {
			t.Errorf("bad trace op %+v", op)
		}
	}
	if dd.VirtualTime() <= 0 {
		t.Error("virtual clock did not advance")
	}
}

func TestGridDims(t *testing.T) {
	dd, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if dd.GridDims().Vol() != 6 {
		t.Errorf("grid = %v", dd.GridDims())
	}
	a := dd.Assignment(0)
	if len(a) != 6 {
		t.Errorf("assignment length %d", len(a))
	}
}
