package part

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestPrimeFactors(t *testing.T) {
	cases := []struct {
		n    int
		want []int
	}{
		{1, nil},
		{2, []int{2}},
		{6, []int{3, 2}},
		{12, []int{3, 2, 2}},
		{256, []int{2, 2, 2, 2, 2, 2, 2, 2}},
		{97, []int{97}},
		{60, []int{5, 3, 2, 2}},
		{math.MaxInt, []int{649657, 92737, 337, 127, 73, 7, 7}},
	}
	for _, c := range cases {
		got := PrimeFactors(c.n)
		if len(got) != len(c.want) {
			t.Errorf("PrimeFactors(%d) = %v, want %v", c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("PrimeFactors(%d) = %v, want %v", c.n, got, c.want)
				break
			}
		}
	}
}

// trialFactors is the plain trial division PrimeFactors once was, largest
// factor first: the reference for the rho/Miller–Rabin path.
func trialFactors(n int) []int {
	var fs []int
	for f := 2; f <= n/f; f++ {
		for n%f == 0 {
			fs = append(fs, f)
			n /= f
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	for i, j := 0, len(fs)-1; i < j; i, j = i+1, j-1 {
		fs[i], fs[j] = fs[j], fs[i]
	}
	return fs
}

func TestPrimeFactorsMatchesTrialDivision(t *testing.T) {
	for n := 1; n <= 100000; n++ {
		if got, want := PrimeFactors(n), trialFactors(n); !slices.Equal(got, want) {
			t.Fatalf("PrimeFactors(%d) = %v, trial division %v", n, got, want)
		}
	}
}

// Large primes and products of large primes must factor exactly, and fast:
// trial division takes about 8 ms on the 2^40-sized prime and would take
// seconds near 2^63.
func TestPrimeFactorsLarge(t *testing.T) {
	// The largest primes below 2^31, found by trial division.
	var big []int
	for n := 1<<31 - 1; len(big) < 3; n-- {
		if len(trialFactors(n)) == 1 {
			big = append(big, n)
		}
	}
	cases := []struct {
		n    int
		want []int
	}{
		{1<<63 - 25, []int{1<<63 - 25}}, // the largest prime below 2^63
		{1099511627689, []int{1099511627689}},
		{1<<61 - 1, []int{1<<61 - 1}}, // a Mersenne prime
		{math.MaxInt, []int{649657, 92737, 337, 127, 73, 7, 7}},
		{big[0] * big[1], []int{big[0], big[1]}},
		{big[1] * big[2], []int{big[1], big[2]}},
		{big[0] * big[0], []int{big[0], big[0]}},
		{2 * 3 * big[2] * 1021, []int{big[2], 1021, 3, 2}},
		{1031 * 1031 * 1033, []int{1033, 1031, 1031}},
	}
	for _, c := range cases {
		if got := PrimeFactors(c.n); !slices.Equal(got, c.want) {
			t.Errorf("PrimeFactors(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPrimeFactorsProperty(t *testing.T) {
	f := func(n uint16) bool {
		v := int(n%5000) + 1
		fs := PrimeFactors(v)
		prod := 1
		for i, f := range fs {
			prod *= f
			if i > 0 && fs[i-1] < f {
				return false // must be sorted descending
			}
		}
		return prod == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFig4Decomposition reproduces the paper's Fig 4 walk-through: a
// 4×24×2 domain over 12 nodes splits y by 3, y by 2, x by 2, giving a node
// grid of [2 6 1]; each node subdomain (2×4×2) over 4 GPUs splits y by 2
// then x by 2, giving a GPU grid of [2 2 1].
func TestFig4Decomposition(t *testing.T) {
	h, err := NewHier(Dim3{4, 24, 2}, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.NodeDims != (Dim3{2, 6, 1}) {
		t.Errorf("node grid = %v, want [2 6 1]", h.NodeDims)
	}
	if h.GPUDims != (Dim3{2, 2, 1}) {
		t.Errorf("GPU grid = %v, want [2 2 1]", h.GPUDims)
	}
	if h.GlobalDims() != (Dim3{4, 12, 1}) {
		t.Errorf("global grid = %v, want [4 12 1]", h.GlobalDims())
	}
	// Every subdomain is 1×2×2.
	for n := 0; n < 12; n++ {
		for g := 0; g < 4; g++ {
			_, size := h.Subdomain(h.NodeIndex(n), h.GPUIndex(g))
			if size != (Dim3{1, 2, 2}) {
				t.Fatalf("subdomain size = %v, want [1 2 2]", size)
			}
		}
	}
}

func TestGridCube(t *testing.T) {
	// A cube split 6 ways: factors [3 2]; splits x by 3, then y by 2.
	g := Grid(Dim3{600, 600, 600}, 6)
	if g.Vol() != 6 {
		t.Fatalf("grid %v does not have 6 cells", g)
	}
	if g != (Dim3{3, 2, 1}) {
		t.Errorf("grid = %v, want [3 2 1]", g)
	}
}

func TestGridLongAxis(t *testing.T) {
	// All factors go to the dominant axis.
	g := Grid(Dim3{8, 1000, 8}, 8)
	if g != (Dim3{1, 8, 1}) {
		t.Errorf("grid = %v, want [1 8 1]", g)
	}
}

func TestGridVolumeProperty(t *testing.T) {
	f := func(a, b, c uint8, n uint8) bool {
		d := Dim3{int(a%64) + 64, int(b%64) + 64, int(c%64) + 64}
		k := int(n%16) + 1
		g := Grid(d, k)
		return g.Vol() == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFig3Volumes reproduces the Fig 3 comparison: for the same domain and
// partition count, the more cubical grid has lower total communication
// volume, and Grid picks the cubical one.
func TestFig3Volumes(t *testing.T) {
	domain := Dim3{36, 36, 1}
	r := 1
	v22 := CommVolume(domain, Dim3{2, 2, 1}, r)
	v41 := CommVolume(domain, Dim3{4, 1, 1}, r)
	if v22 >= v41 {
		t.Errorf("2x2 volume %d should beat 4x1 volume %d", v22, v41)
	}
	v33 := CommVolume(domain, Dim3{3, 3, 1}, r)
	v91 := CommVolume(domain, Dim3{9, 1, 1}, r)
	if v33 >= v91 {
		t.Errorf("3x3 volume %d should beat 9x1 volume %d", v33, v91)
	}
	// Grid picks the cubical decompositions.
	if g := Grid(domain, 4); g != (Dim3{2, 2, 1}) {
		t.Errorf("Grid(4) = %v, want [2 2 1]", g)
	}
	if g := Grid(domain, 9); g != (Dim3{3, 3, 1}) {
		t.Errorf("Grid(9) = %v, want [3 3 1]", g)
	}
}

func TestBlockSizes(t *testing.T) {
	wantOrigin := []int{0, 4, 7}
	wantSize := []int{4, 3, 3}
	for i := range wantSize {
		if o, s := block(10, 3, i); o != wantOrigin[i] || s != wantSize[i] {
			t.Errorf("block(10, 3, %d) = (%d, %d), want (%d, %d)", i, o, s, wantOrigin[i], wantSize[i])
		}
	}
}

func TestSubdomainTiling(t *testing.T) {
	// Subdomains must tile the domain exactly: disjoint, covering, in-bounds.
	h, err := NewHier(Dim3{100, 70, 33}, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[[3]int]bool)
	for n := 0; n < h.NodeDims.Vol(); n++ {
		for g := 0; g < h.GPUDims.Vol(); g++ {
			o, s := h.Subdomain(h.NodeIndex(n), h.GPUIndex(g))
			for z := o.Z; z < o.Z+s.Z; z++ {
				for y := o.Y; y < o.Y+s.Y; y++ {
					for x := o.X; x < o.X+s.X; x++ {
						key := [3]int{x, y, z}
						if covered[key] {
							t.Fatalf("cell %v covered twice", key)
						}
						covered[key] = true
					}
				}
			}
		}
	}
	if len(covered) != 100*70*33 {
		t.Errorf("covered %d cells, want %d", len(covered), 100*70*33)
	}
}

func TestSubdomainTilingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := Dim3{rng.Intn(40) + 24, rng.Intn(40) + 24, rng.Intn(40) + 24}
		nodes := rng.Intn(8) + 1
		gpus := []int{1, 2, 4, 6}[rng.Intn(4)]
		h, err := NewHier(d, nodes, gpus)
		if err != nil {
			return true // domain too small for the split: acceptable rejection
		}
		total := 0
		for n := 0; n < h.NodeDims.Vol(); n++ {
			for g := 0; g < h.GPUDims.Vol(); g++ {
				_, s := h.Subdomain(h.NodeIndex(n), h.GPUIndex(g))
				if s.X < 1 || s.Y < 1 || s.Z < 1 {
					return false
				}
				total += s.Vol()
			}
		}
		return total == d.Vol()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGlobalIndexSplitRoundTrip(t *testing.T) {
	h, err := NewHier(Dim3{96, 96, 96}, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < h.NodeDims.Vol(); n++ {
		for g := 0; g < h.GPUDims.Vol(); g++ {
			ni, gi := h.NodeIndex(n), h.GPUIndex(g)
			global := h.GlobalIndex(ni, gi)
			n2, g2 := h.Split(global)
			if n2 != ni || g2 != gi {
				t.Fatalf("round trip failed: (%v,%v) -> %v -> (%v,%v)", ni, gi, global, n2, g2)
			}
		}
	}
}

func TestRankIndexRoundTrip(t *testing.T) {
	h, err := NewHier(Dim3{96, 96, 96}, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 12; n++ {
		if h.NodeRank(h.NodeIndex(n)) != n {
			t.Errorf("node rank round trip failed at %d", n)
		}
	}
	for g := 0; g < 4; g++ {
		if h.GPURank(h.GPUIndex(g)) != g {
			t.Errorf("gpu rank round trip failed at %d", g)
		}
	}
}

func TestNeighborPeriodic(t *testing.T) {
	h, err := NewHier(Dim3{60, 60, 60}, 1, 6) // global grid [3 2 1]
	if err != nil {
		t.Fatal(err)
	}
	g := h.GlobalDims()
	if g != (Dim3{3, 2, 1}) {
		t.Fatalf("global grid = %v", g)
	}
	// Wrap in +x from the last column.
	nb := h.Neighbor(Dim3{2, 0, 0}, Dim3{1, 0, 0})
	if nb != (Dim3{0, 0, 0}) {
		t.Errorf("wrap +x = %v, want [0 0 0]", nb)
	}
	// Wrap in -y from the first row.
	nb = h.Neighbor(Dim3{0, 0, 0}, Dim3{0, -1, 0})
	if nb != (Dim3{0, 1, 0}) {
		t.Errorf("wrap -y = %v, want [0 1 0]", nb)
	}
	// z has extent 1: any z step is a self-neighbor in z.
	nb = h.Neighbor(Dim3{1, 1, 0}, Dim3{0, 0, 1})
	if nb != (Dim3{1, 1, 0}) {
		t.Errorf("z wrap = %v, want self", nb)
	}
}

func TestDirections(t *testing.T) {
	d26 := Directions26()
	if len(d26) != 26 {
		t.Fatalf("Directions26 has %d entries", len(d26))
	}
	seen := make(map[Dim3]bool)
	for _, d := range d26 {
		if d == (Dim3{}) {
			t.Error("zero vector in Directions26")
		}
		if seen[d] {
			t.Errorf("duplicate direction %v", d)
		}
		seen[d] = true
	}
	if len(Directions6()) != 6 {
		t.Error("Directions6 wrong length")
	}
	for _, d := range Directions6() {
		n := 0
		for _, v := range []int{d.X, d.Y, d.Z} {
			if v != 0 {
				n++
			}
		}
		if n != 1 {
			t.Errorf("direction %v is not a face direction", d)
		}
	}
}

func TestHaloCells(t *testing.T) {
	size := Dim3{10, 20, 30}
	cases := []struct {
		dir  Dim3
		r    int
		want int
	}{
		{Dim3{1, 0, 0}, 1, 600},  // y*z face
		{Dim3{1, 0, 0}, 3, 1800}, // radius scales face thickness
		{Dim3{1, 1, 0}, 2, 120},  // edge: r*r*z
		{Dim3{1, 1, 1}, 2, 8},    // corner: r^3
		{Dim3{0, -1, 0}, 1, 300}, // x*z face
		{Dim3{0, 0, 1}, 1, 200},  // x*y face
		{Dim3{-1, 0, -1}, 1, 20}, // edge: r*y*r
		{Dim3{-1, -1, -1}, 1, 1}, // unit corner
		{Dim3{0, 1, 1}, 3, 90},   // edge: x*r*r
	}
	for _, c := range cases {
		if got := HaloCells(size, c.dir, c.r); got != c.want {
			t.Errorf("HaloCells(%v, r=%d) = %d, want %d", c.dir, c.r, got, c.want)
		}
	}
}

func TestCubicalGridMinimizesVolumeProperty(t *testing.T) {
	// Among all factorizations of n into a 3D grid over a cubical domain,
	// the Grid choice achieves the minimum CommVolume.
	f := func(n uint8) bool {
		k := int(n%12) + 1
		domain := Dim3{720, 720, 720} // divisible by 1..6, 8, 9, 10, 12
		best := Grid(domain, k)
		if 720%best.X != 0 || 720%best.Y != 0 || 720%best.Z != 0 {
			return true // skip non-dividing cases for exact volume math
		}
		bestVol := CommVolume(domain, best, 1)
		for x := 1; x <= k; x++ {
			if k%x != 0 {
				continue
			}
			for y := 1; y <= k/x; y++ {
				if (k/x)%y != 0 {
					continue
				}
				z := k / x / y
				g := Dim3{x, y, z}
				if 720%x != 0 || 720%y != 0 || 720%z != 0 {
					continue
				}
				if CommVolume(domain, g, 1) < bestVol {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewHierErrors(t *testing.T) {
	if _, err := NewHier(Dim3{4, 4, 4}, 0, 1); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewHier(Dim3{2, 2, 2}, 64, 6); err == nil {
		t.Error("oversplit domain accepted")
	}
	// More subdomains than cells fail before Grid factors the node count; a
	// prime near 1e18 would take about 1e9 trial divisions otherwise.
	for _, c := range []struct {
		d           Dim3
		nodes, gpus int
	}{
		{Dim3{12, 12, 12}, 999999999999999989, 6},
		{Dim3{12, 12, 12}, 9223372036854775783, 1},
		{Dim3{1 << 40, 1 << 40, 1 << 40}, 1 << 62, 6}, // nodes x gpus overflows
		{Dim3{2, 2, 2}, 3, 3},
	} {
		if _, err := NewHier(c.d, c.nodes, c.gpus); err == nil || !strings.Contains(err.Error(), "exceed") {
			t.Errorf("NewHier(%v, %d, %d) error %v, want one about exceeding the cells", c.d, c.nodes, c.gpus, err)
		}
	}
	// Exactly one cell per subdomain still fits.
	if _, err := NewHier(Dim3{2, 2, 2}, 4, 2); err != nil {
		t.Errorf("one cell per subdomain rejected: %v", err)
	}
}

// TestFitsIn checks the overflow-free volume comparison against the product
// wherever the product is representable.
func TestFitsIn(t *testing.T) {
	f := func(n, x, y, z uint16) bool {
		d := Dim3{int(x%50) + 1, int(y%50) + 1, int(z%50) + 1}
		v := int(n) + 1
		return fitsIn(v, d) == (v <= d.Vol())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !fitsIn(math.MaxInt, Dim3{1 << 40, 1 << 40, 1 << 40}) {
		t.Error("MaxInt does not fit a 2^120-cell domain")
	}
}

func TestDirections18(t *testing.T) {
	d18 := Directions18()
	if len(d18) != 18 {
		t.Fatalf("Directions18 has %d entries", len(d18))
	}
	for _, d := range d18 {
		nz := 0
		for _, v := range []int{d.X, d.Y, d.Z} {
			if v != 0 {
				nz++
			}
		}
		if nz < 1 || nz > 2 {
			t.Errorf("direction %v has %d nonzero components", d, nz)
		}
	}
}
