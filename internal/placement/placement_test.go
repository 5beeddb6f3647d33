package placement

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/nodeaware/stencil/internal/machine"
	"github.com/nodeaware/stencil/internal/nvml"
	"github.com/nodeaware/stencil/internal/part"
	"github.com/nodeaware/stencil/internal/sim"
)

func summitBW(t *testing.T) [][]float64 {
	t.Helper()
	e := sim.NewEngine()
	m := machine.NewSummit(e, 1)
	return nvml.Discover(m.Nodes[0]).Bandwidth
}

func TestFlowMatrixSymmetric(t *testing.T) {
	h, err := part.NewHier(part.Dim3{X: 1440, Y: 1452, Z: 700}, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	w := FlowMatrix(h, part.Dim3{}, 2, 4, 4)
	if d := MaxAbsDiff(w); d != 0 {
		t.Errorf("flow matrix asymmetric by %g", d)
	}
	if TotalFlow(w) <= 0 {
		t.Error("no flow in 6-subdomain node")
	}
}

func TestFlowMatrixShapes(t *testing.T) {
	// Fig 5: subdomains [0,0,0] and [0,1,0] share an MxN face; [0,0,0] and
	// [1,0,0] share an MxP face; the volumes must reflect the shapes.
	// Domain 1440x1452x700 over 6 GPUs gives grid [2 3 1]: subdomains
	// 720x484x700.
	h, err := part.NewHier(part.Dim3{X: 1440, Y: 1452, Z: 700}, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if h.GPUDims != (part.Dim3{X: 2, Y: 3, Z: 1}) {
		t.Fatalf("GPU grid = %v, want [2 3 1]", h.GPUDims)
	}
	w := FlowMatrix(h, part.Dim3{}, 1, 1, 4)
	// Subdomain 0 = gpu index (0,0,0). Its x-pair partner is rank 1: with x
	// extent 2, BOTH +x and -x (periodic wrap) land on rank 1, two 484x700
	// faces, plus the four (±1,0,±1) edges whose z component wraps to self.
	wantX := float64((2*484*700 + 4*484) * 4)
	// Its +y partner is rank 2: one 720x700 face plus the two (0,1,±1)
	// edges.
	wantY := float64((720*700 + 2*720) * 4)
	if w[0][1] != wantX {
		t.Errorf("x-pair flow = %g, want %g", w[0][1], wantX)
	}
	if w[0][2] != wantY {
		t.Errorf("y-pair flow = %g, want %g", w[0][2], wantY)
	}
	// The doubled x faces dominate: the QAP should see the x pair as the
	// hottest link.
	if w[0][1] <= w[0][2] {
		t.Errorf("x-pair flow %g should exceed single y face %g", w[0][1], w[0][2])
	}
}

func TestFlowMatrixIntraNodeWrap(t *testing.T) {
	// Single node: periodic wrap along a split axis stays on the node, so
	// GPUs 0 and 2 in a [3 1 1]... use 3 GPUs in x: ranks 0 and 2 are
	// neighbors via both +x and wrap -x.
	h, err := part.NewHier(part.Dim3{X: 300, Y: 100, Z: 100}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.GPUDims != (part.Dim3{X: 3, Y: 1, Z: 1}) {
		t.Fatalf("grid = %v", h.GPUDims)
	}
	w := FlowMatrix(h, part.Dim3{}, 1, 1, 4)
	if w[0][2] <= 0 {
		t.Error("periodic wrap flow 0->2 missing")
	}
	// 0->1 direct and 0->2 wrap cross the same face size: equal flow.
	if w[0][1] != w[0][2] {
		t.Errorf("wrap flow %g != direct flow %g", w[0][2], w[0][1])
	}
}

func TestDistanceMatrix(t *testing.T) {
	bw := [][]float64{{100, 50}, {50, 100}}
	d := DistanceMatrix(bw)
	if d[0][0] != 0 || d[1][1] != 0 {
		t.Error("diagonal must be zero")
	}
	if d[0][1] != 0.02 {
		t.Errorf("d[0][1] = %g, want 0.02", d[0][1])
	}
}

func TestSolveTinyKnownOptimum(t *testing.T) {
	// Two heavy-flow subdomains (0,1) and two GPUs pairs: (0,1) fast, the
	// rest slow. Optimal assignment keeps 0,1 on the fast pair.
	w := [][]float64{
		{0, 10, 0, 0},
		{10, 0, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	}
	// GPUs: 0-1 fast (distance 1), everything else slow (distance 10).
	d := [][]float64{
		{0, 1, 10, 10},
		{1, 0, 10, 10},
		{10, 10, 0, 10},
		{10, 10, 10, 0},
	}
	f, c := Solve(w, d)
	// Optimal cost: heavy pair on fast link (2*10*1) + light pair on a slow
	// link (2*1*10) = 40.
	if c != 40 {
		t.Errorf("optimal cost = %g, want 40", c)
	}
	// Subdomains 0 and 1 must land on GPUs 0 and 1.
	g01 := map[int]bool{f[0]: true, f[1]: true}
	if !g01[0] || !g01[1] {
		t.Errorf("heavy pair assigned to GPUs %d,%d, want 0,1", f[0], f[1])
	}
}

func TestSolveBeatsTrivialOnAdversarialCase(t *testing.T) {
	// Trivial puts heavy flow on a slow link; Solve must find better.
	w := [][]float64{
		{0, 0, 9},
		{0, 0, 0},
		{9, 0, 0},
	}
	d := [][]float64{
		{0, 1, 5},
		{1, 0, 1},
		{5, 1, 0},
	}
	f, c := Solve(w, d)
	tc := Cost(w, d, Trivial(3))
	if c >= tc {
		t.Errorf("solver cost %g not better than trivial %g (f=%v)", c, tc, f)
	}
}

func TestPlaceFig11Scenario(t *testing.T) {
	// The paper's Fig 11 domain: 1440x1452x700 on one 6-GPU node produces
	// 720x484x700 subdomains in a [2 3 1] grid. Node-aware placement must
	// strictly beat the trivial one on the Summit bandwidth matrix.
	h, err := part.NewHier(part.Dim3{X: 1440, Y: 1452, Z: 700}, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	bw := summitBW(t)
	aware := Place(h, part.Dim3{}, bw, 2, 4, 4, true)
	trivial := Place(h, part.Dim3{}, bw, 2, 4, 4, false)
	if aware.Cost >= trivial.Cost {
		t.Errorf("node-aware cost %g not better than trivial %g", aware.Cost, trivial.Cost)
	}
	w := FlowMatrix(h, part.Dim3{}, 2, 4, 4)
	d := DistanceMatrix(bw)
	imp := Improvement(w, d, aware)
	if imp <= 0.05 {
		t.Errorf("improvement %.3f too small for the worst-case aspect scenario", imp)
	}
	t.Logf("Fig 11 QAP cost improvement: %.1f%%", imp*100)
}

func TestPlaceCubicalNoEffect(t *testing.T) {
	// Near-cubical subdomains exchange similar volumes in all directions;
	// placement may help only marginally (§IV-B: "data placement has no
	// performance effect" for small aspect ratios). The solver should still
	// never be worse than trivial.
	h, err := part.NewHier(part.Dim3{X: 960, Y: 960, Z: 960}, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	bw := summitBW(t)
	aware := Place(h, part.Dim3{}, bw, 2, 4, 4, true)
	trivial := Place(h, part.Dim3{}, bw, 2, 4, 4, false)
	if aware.Cost > trivial.Cost {
		t.Errorf("aware %g worse than trivial %g", aware.Cost, trivial.Cost)
	}
}

func TestNewAssignmentValidation(t *testing.T) {
	a := NewAssignment([]int{2, 0, 1}, 7)
	if a.GPUToSub[2] != 0 || a.GPUToSub[0] != 1 || a.GPUToSub[1] != 2 {
		t.Errorf("inverse = %v", a.GPUToSub)
	}
	defer func() {
		if recover() == nil {
			t.Error("non-permutation accepted")
		}
	}()
	NewAssignment([]int{0, 0, 1}, 0)
}

// Property: Solve returns a valid permutation whose cost is <= the cost of
// any of a sample of random permutations, and <= trivial.
func TestSolveOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4) + 2
		w := make([][]float64, n)
		d := make([][]float64, n)
		for i := 0; i < n; i++ {
			w[i] = make([]float64, n)
			d[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				fw := rng.Float64() * 100
				fd := rng.Float64() + 0.01
				w[i][j], w[j][i] = fw, fw
				d[i][j], d[j][i] = fd, fd
			}
		}
		f1, c := Solve(w, d)
		seen := make([]bool, n)
		for _, g := range f1 {
			if g < 0 || g >= n || seen[g] {
				return false
			}
			seen[g] = true
		}
		if c > Cost(w, d, Trivial(n))+1e-9 {
			return false
		}
		for k := 0; k < 20; k++ {
			if c > Cost(w, d, rng.Perm(n))+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: scaling the flow matrix scales the optimal cost linearly and
// never changes which assignments are optimal-cost-equivalent.
func TestSolveScaleInvarianceProperty(t *testing.T) {
	f := func(seed int64, scale uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := float64(scale%20) + 1
		n := 4
		w := make([][]float64, n)
		ws := make([][]float64, n)
		d := make([][]float64, n)
		for i := 0; i < n; i++ {
			w[i] = make([]float64, n)
			ws[i] = make([]float64, n)
			d[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				fw := rng.Float64() * 10
				fd := rng.Float64() + 0.1
				w[i][j], w[j][i] = fw, fw
				ws[i][j], ws[j][i] = fw*k, fw*k
				d[i][j], d[j][i] = fd, fd
			}
		}
		_, c1 := Solve(w, d)
		_, c2 := Solve(ws, d)
		return almostEq(c2, c1*k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func almostEq(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if b > a {
		scale = b
	}
	if scale < 1 {
		scale = 1
	}
	return diff <= 1e-9*scale
}

// uniformEvictCase builds a tiny symmetric QAP instance for eviction tests:
// 4 subdomains, ring flow, uniform distances except the diagonal.
func uniformEvictCase() (w, d [][]float64) {
	n := 4
	w = make([][]float64, n)
	d = make([][]float64, n)
	for i := 0; i < n; i++ {
		w[i] = make([]float64, n)
		d[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i != j {
				d[i][j] = 1
			}
		}
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		w[i][j], w[j][i] = 1, 1
	}
	return w, d
}

// TestPlaceEvictKeepsSurvivors: survivors stay put; only the orphan moves,
// to the least-occupied surviving GPU.
func TestPlaceEvictKeepsSurvivors(t *testing.T) {
	w, d := uniformEvictCase()
	cur := []int{0, 1, 2, 3}
	alive := []bool{true, true, true, false} // GPU 3 died
	f, cost, err := PlaceEvict(w, d, cur, alive)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if f[i] != cur[i] {
			t.Errorf("survivor %d moved: %d -> %d", i, cur[i], f[i])
		}
	}
	if f[3] == 3 || !alive[f[3]] {
		t.Errorf("orphan placed on %d, want a surviving GPU", f[3])
	}
	if want := CostEvict(w, d, f); cost != want {
		t.Errorf("returned cost %g != recomputed %g", cost, want)
	}
}

// TestPlaceEvictDeterministicTieBreak: with symmetric occupancy and cost the
// lowest GPU index wins, and repeated runs agree.
func TestPlaceEvictDeterministicTieBreak(t *testing.T) {
	w, d := uniformEvictCase()
	// Everything is symmetric for the orphan from subdomain 0's view.
	cur := []int{0, 1, 2, 3}
	alive := []bool{false, true, true, true}
	f1, _, err := PlaceEvict(w, d, cur, alive)
	if err != nil {
		t.Fatal(err)
	}
	f2, _, _ := PlaceEvict(w, d, cur, alive)
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("non-deterministic eviction: %v vs %v", f1, f2)
		}
	}
	// Cost ties (uniform distance, equal occupancy): the orphan of GPU 0
	// must land on the lowest-indexed survivor.
	if f1[0] != 1 {
		t.Errorf("orphan went to GPU %d, want 1 (lowest-index tie break)", f1[0])
	}
}

// TestPlaceEvictPrefersLowOccupancy: a second loss spreads orphans across
// distinct survivors before doubling anyone up.
func TestPlaceEvictPrefersLowOccupancy(t *testing.T) {
	w, d := uniformEvictCase()
	cur := []int{0, 1, 2, 3}
	alive := []bool{true, true, false, false}
	f, _, err := PlaceEvict(w, d, cur, alive)
	if err != nil {
		t.Fatal(err)
	}
	occ := map[int]int{}
	for _, g := range f {
		occ[g]++
	}
	if occ[0] != 2 || occ[1] != 2 {
		t.Errorf("occupancy %v, want 2 on each survivor", occ)
	}
}

// TestPlaceEvictPinnedAndMinimizesCost: cur[i] == -1 entries are pinned
// off-node and ignored; among equal-occupancy candidates the marginal QAP
// cost decides.
func TestPlaceEvictPinnedAndMinimizesCost(t *testing.T) {
	w, d := uniformEvictCase()
	// Make GPU 1 far from everything, GPU 0 close: the orphan exchanging
	// with subdomain 3 (on GPU 3) should prefer GPU 0.
	for j := 0; j < 4; j++ {
		if j != 1 {
			d[1][j], d[j][1] = 10, 10
		}
	}
	cur := []int{-1, -1, 2, 3} // subs 0,1 already migrated off node
	alive := []bool{true, true, false, true}
	f, _, err := PlaceEvict(w, d, cur, alive)
	if err != nil {
		t.Fatal(err)
	}
	if f[0] != -1 || f[1] != -1 {
		t.Errorf("pinned entries moved: %v", f)
	}
	if f[2] != 0 {
		t.Errorf("orphan went to GPU %d, want 0 (cheaper marginal cost)", f[2])
	}
}

// TestPlaceEvictNoSurvivors: all-dead nodes report an error so the caller
// can fall back to cross-node migration.
func TestPlaceEvictNoSurvivors(t *testing.T) {
	w, d := uniformEvictCase()
	if _, _, err := PlaceEvict(w, d, []int{0, 1, 2, 3}, []bool{false, false, false, false}); err == nil {
		t.Error("PlaceEvict succeeded with no surviving GPU")
	}
}

// TestEvictAssignment: non-bijective mappings wrap without the permutation
// panic; GPUToSub keeps the lowest-indexed occupant and -1 for empty GPUs.
func TestEvictAssignment(t *testing.T) {
	a := EvictAssignment([]int{0, 1, 1, -1}, 7)
	if a.Cost != 7 {
		t.Errorf("cost %g, want 7", a.Cost)
	}
	if got := a.GPUToSub; got[0] != 0 || got[1] != 1 || got[2] != -1 || got[3] != -1 {
		t.Errorf("GPUToSub = %v, want [0 1 -1 -1]", got)
	}
}

// TestCostEvictMatchesCostOnPermutations: on a bijection the eviction cost
// equals the standard QAP objective.
func TestCostEvictMatchesCostOnPermutations(t *testing.T) {
	w, d := uniformEvictCase()
	f := []int{2, 0, 3, 1}
	if got, want := CostEvict(w, d, f), Cost(w, d, f); got != want {
		t.Errorf("CostEvict %g != Cost %g on a permutation", got, want)
	}
}

// TestMemoSharesOnlyEqualProblems: a Memo returns the first solve's
// Assignment for a problem equal bit for bit (in fresh slices), and solves
// again when any bit of either matrix or the nodeAware flag differs.
func TestMemoSharesOnlyEqualProblems(t *testing.T) {
	clone := func(m [][]float64) [][]float64 {
		out := make([][]float64, len(m))
		for i := range m {
			out[i] = append([]float64(nil), m[i]...)
		}
		return out
	}
	rng := rand.New(rand.NewSource(3))
	w, d := randomInstance(rng, 6)
	bw := make([][]float64, len(d))
	for i := range d {
		bw[i] = make([]float64, len(d))
		for j := range d {
			bw[i][j] = 1 + float64(i+j)
		}
	}
	var m Memo
	first := m.Place(w, bw, true)
	if got := m.Place(clone(w), clone(bw), true); got != first {
		t.Fatal("an equal problem was solved again")
	}
	w2 := clone(w)
	w2[2][2] = math.Copysign(0, -1) // -0 == 0, but the bits differ
	bw2 := clone(bw)
	bw2[1][0] = math.Nextafter(bw2[1][0], 0)
	for name, c := range map[string]struct {
		w, bw     [][]float64
		nodeAware bool
	}{
		"flow bits":  {w2, bw, true},
		"bandwidth":  {w, bw2, true},
		"node-aware": {w, bw, false},
	} {
		got := m.Place(c.w, c.bw, c.nodeAware)
		if got == first {
			t.Errorf("%s: a different problem shared the first solve", name)
		}
		if want := PlaceFlow(c.w, c.bw, c.nodeAware); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: memo returned %+v, a fresh solve %+v", name, *got, *want)
		}
	}
}
