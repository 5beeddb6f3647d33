// Package part implements the paper's setup phase 1: hierarchical
// partitioning of a 3D stencil domain (§III-A).
//
// The domain is decomposed with recursive inertial bisection: the prime
// factors of the target partition count are sorted largest to smallest and
// the domain is repeatedly divided orthogonally to its longest axis by the
// next factor, keeping subdomains as close to cubical as possible and hence
// minimizing surface-to-volume ratio (Fig 3).
//
// Partitioning is hierarchical (Fig 4): first across nodes, then within each
// node across GPUs, so the slower inter-node links carry the minimized
// communication. Every subdomain gets a 3D index in node space and a 3D
// index in GPU space; the combination is unique.
package part

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Dim3 is a 3D extent or index.
type Dim3 struct {
	X, Y, Z int
}

// Vol returns X*Y*Z.
func (d Dim3) Vol() int { return d.X * d.Y * d.Z }

// Mul returns the elementwise product.
func (d Dim3) Mul(o Dim3) Dim3 { return Dim3{d.X * o.X, d.Y * o.Y, d.Z * o.Z} }

// Add returns the elementwise sum.
func (d Dim3) Add(o Dim3) Dim3 { return Dim3{d.X + o.X, d.Y + o.Y, d.Z + o.Z} }

func (d Dim3) String() string { return fmt.Sprintf("[%d %d %d]", d.X, d.Y, d.Z) }

// axis accessors keep the split loop free of repeated switch statements.
func (d Dim3) get(axis int) int {
	switch axis {
	case 0:
		return d.X
	case 1:
		return d.Y
	default:
		return d.Z
	}
}

func (d *Dim3) set(axis, v int) {
	switch axis {
	case 0:
		d.X = v
	case 1:
		d.Y = v
	default:
		d.Z = v
	}
}

// PrimeFactors returns the prime factorization of n sorted largest to
// smallest. PrimeFactors(1) is empty. Small factors come off by trial
// division; what remains is split by Pollard's rho (Brent's variant) and
// certified by a Miller–Rabin test that is exact for 64-bit inputs, so a
// large prime costs microseconds instead of a trial division up to its
// square root.
func PrimeFactors(n int) []int {
	if n < 1 {
		panic(fmt.Sprintf("part: PrimeFactors(%d)", n))
	}
	var fs []int
	for f := 2; f < trialLimit && f <= n/f; f++ {
		for n%f == 0 {
			fs = append(fs, f)
			n /= f
		}
	}
	if n > 1 {
		fs = appendFactors(fs, uint64(n))
	}
	slices.Sort(fs)
	slices.Reverse(fs)
	return fs
}

// trialLimit bounds PrimeFactors' trial division: every factor below it is
// divided out first, which covers every node and GPU count in practice.
const trialLimit = 1 << 10

// millerRabinBases make the Miller–Rabin test exact for every n < 2^64.
var millerRabinBases = [...]uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// appendFactors appends the prime factors of n > 1, which has no factor
// below trialLimit, in no particular order.
func appendFactors(fs []int, n uint64) []int {
	if isPrime(n) {
		return append(fs, int(n))
	}
	d := pollardBrent(n)
	return appendFactors(appendFactors(fs, d), n/d)
}

// isPrime is the deterministic Miller–Rabin test for n < 2^64.
func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range millerRabinBases {
		if n%p == 0 {
			return n == p
		}
	}
	d, s := n-1, 0
	for d%2 == 0 {
		d /= 2
		s++
	}
	for _, a := range millerRabinBases {
		x := powMod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for i := 1; i < s && composite; i++ {
			x = mulMod(x, x, n)
			composite = x != n-1
		}
		if composite {
			return false
		}
	}
	return true
}

// pollardBrent returns a nontrivial factor of the odd composite n with
// Brent's cycle detection over x ↦ x² + c, batching the gcd over 128 steps.
// The walk is deterministic: c counts up from 1 until a walk splits n.
func pollardBrent(n uint64) uint64 {
	const batch = 128
	for c := uint64(1); ; c++ {
		step := func(x uint64) uint64 { return (mulMod(x, x, n) + c) % n }
		var x, ys uint64
		y, q, g := uint64(2), uint64(1), uint64(1)
		for r := uint64(1); g == 1; r *= 2 {
			x = y
			for i := uint64(0); i < r; i++ {
				y = step(y)
			}
			for k := uint64(0); k < r && g == 1; k += batch {
				ys = y
				for i := uint64(0); i < min(batch, r-k); i++ {
					y = step(y)
					q = mulMod(q, absDiff(x, y), n)
				}
				g = gcd(q, n)
			}
		}
		if g == n {
			// The batch overshot: replay it one step at a time.
			for g = 1; g == 1; {
				ys = step(ys)
				g = gcd(absDiff(x, ys), n)
			}
		}
		if g != n {
			return g
		}
	}
}

func mulMod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return bits.Rem64(hi, lo, m)
}

func powMod(a, e, m uint64) uint64 {
	r := uint64(1)
	for a %= m; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = mulMod(r, a, m)
		}
		a = mulMod(a, a, m)
	}
	return r
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Grid computes the partition grid for dividing domain into n subdomains by
// recursive inertial bisection. The returned dims multiply to n. The domain
// extents guide which axis each factor divides; extents are tracked as
// rationals (numerator over accumulated divisor) so uneven divisions still
// steer later splits correctly.
func Grid(domain Dim3, n int) Dim3 {
	if n < 1 {
		panic(fmt.Sprintf("part: Grid with %d partitions", n))
	}
	if domain.X < 1 || domain.Y < 1 || domain.Z < 1 {
		panic(fmt.Sprintf("part: empty domain %v", domain))
	}
	grid := Dim3{1, 1, 1}
	// Current subdomain extent along each axis, as a float for comparison.
	ext := [3]float64{float64(domain.X), float64(domain.Y), float64(domain.Z)}
	for _, f := range PrimeFactors(n) {
		// Longest axis, ties broken toward x then y then z (matches the
		// paper's Fig 4 walk-through).
		axis := 0
		for a := 1; a < 3; a++ {
			if ext[a] > ext[axis] {
				axis = a
			}
		}
		ext[axis] /= float64(f)
		grid.set(axis, grid.get(axis)*f)
	}
	return grid
}

// block returns the origin and size of block i when extent e is split into
// k contiguous blocks whose sizes differ by at most one; the first e%k
// blocks are one larger.
func block(e, k, i int) (origin, size int) {
	base, rem := e/k, e%k
	if i < rem {
		return i * (base + 1), base + 1
	}
	return rem*(base+1) + (i-rem)*base, base
}

// fitsIn reports whether n <= d.Vol() without forming the product, which can
// overflow: ceil(ceil(n/X)/Y) <= Z exactly when n <= X*Y*Z. n and every
// extent must be positive.
func fitsIn(n int, d Dim3) bool {
	ceilDiv := func(a, b int) int { return (a-1)/b + 1 }
	return ceilDiv(ceilDiv(n, d.X), d.Y) <= d.Z
}

// Hier is a two-level hierarchical decomposition of a domain.
type Hier struct {
	Domain   Dim3
	Nodes    int
	GPUs     int // per node
	NodeDims Dim3
	GPUDims  Dim3
}

// NewHier decomposes domain across nodes, then each node-level subdomain
// across gpusPerNode GPUs. It fails if any axis would be split finer than
// its extent. Block origins and sizes are derived on demand (Subdomain), so
// its cost does not grow with the node count.
func NewHier(domain Dim3, nodes, gpusPerNode int) (*Hier, error) {
	if nodes < 1 || gpusPerNode < 1 {
		return nil, fmt.Errorf("part: %d nodes, %d gpus/node", nodes, gpusPerNode)
	}
	if domain.X < 1 || domain.Y < 1 || domain.Z < 1 {
		return nil, fmt.Errorf("part: empty domain %v", domain)
	}
	// Every subdomain needs a cell. Checking this first also keeps Grid from
	// factoring a node count far beyond the domain's volume.
	if nodes > math.MaxInt/gpusPerNode || !fitsIn(nodes*gpusPerNode, domain) {
		return nil, fmt.Errorf("part: %d nodes x %d gpus/node exceed the %v domain's cells", nodes, gpusPerNode, domain)
	}
	nd := Grid(domain, nodes)
	// GPU-level grid is computed on a representative node subdomain.
	nodeSub := Dim3{
		X: domain.X / nd.X,
		Y: domain.Y / nd.Y,
		Z: domain.Z / nd.Z,
	}
	if nodeSub.X < 1 || nodeSub.Y < 1 || nodeSub.Z < 1 {
		return nil, fmt.Errorf("part: domain %v too small for %d nodes (grid %v)", domain, nodes, nd)
	}
	gd := Grid(nodeSub, gpusPerNode)
	for a := 0; a < 3; a++ {
		if parts := nd.get(a) * gd.get(a); parts > domain.get(a) {
			return nil, fmt.Errorf("part: axis %d extent %d split into %d parts", a, domain.get(a), parts)
		}
	}
	return &Hier{Domain: domain, Nodes: nodes, GPUs: gpusPerNode, NodeDims: nd, GPUDims: gd}, nil
}

// GlobalDims returns the full subdomain grid: NodeDims * GPUDims.
func (h *Hier) GlobalDims() Dim3 { return h.NodeDims.Mul(h.GPUDims) }

// NumSubdomains returns the total number of subdomains.
func (h *Hier) NumSubdomains() int { return h.GlobalDims().Vol() }

// Subdomain returns the origin and size of the subdomain with node-space
// index node and GPU-space index gpu.
func (h *Hier) Subdomain(node, gpu Dim3) (origin, size Dim3) {
	for a := 0; a < 3; a++ {
		nodeOrigin, nodeSize := block(h.Domain.get(a), h.NodeDims.get(a), node.get(a))
		gpuOrigin, gpuSize := block(nodeSize, h.GPUDims.get(a), gpu.get(a))
		origin.set(a, nodeOrigin+gpuOrigin)
		size.set(a, gpuSize)
	}
	return origin, size
}

// Thinnest returns the smallest subdomain extent along each axis. Blocks
// differ by at most one cell at each level, so it is the extent divided by
// the node parts, then by the GPU parts.
func (h *Hier) Thinnest() Dim3 {
	return Dim3{
		X: h.Domain.X / h.NodeDims.X / h.GPUDims.X,
		Y: h.Domain.Y / h.NodeDims.Y / h.GPUDims.Y,
		Z: h.Domain.Z / h.NodeDims.Z / h.GPUDims.Z,
	}
}

// GlobalIndex combines a node index and GPU index into the global subdomain
// grid index.
func (h *Hier) GlobalIndex(node, gpu Dim3) Dim3 {
	return Dim3{
		X: node.X*h.GPUDims.X + gpu.X,
		Y: node.Y*h.GPUDims.Y + gpu.Y,
		Z: node.Z*h.GPUDims.Z + gpu.Z,
	}
}

// Split decomposes a global grid index into its node and GPU indices.
func (h *Hier) Split(global Dim3) (node, gpu Dim3) {
	node = Dim3{global.X / h.GPUDims.X, global.Y / h.GPUDims.Y, global.Z / h.GPUDims.Z}
	gpu = Dim3{global.X % h.GPUDims.X, global.Y % h.GPUDims.Y, global.Z % h.GPUDims.Z}
	return
}

// Neighbor returns the global index of the neighbor in direction dir
// (components in {-1,0,1}) under periodic boundary conditions.
func (h *Hier) Neighbor(global, dir Dim3) Dim3 {
	g := h.GlobalDims()
	wrap := func(v, n int) int { return ((v % n) + n) % n }
	return Dim3{
		X: wrap(global.X+dir.X, g.X),
		Y: wrap(global.Y+dir.Y, g.Y),
		Z: wrap(global.Z+dir.Z, g.Z),
	}
}

// NeighborOpen returns the neighbor in direction dir under open
// (non-periodic) boundary conditions; ok is false when the step leaves the
// subdomain grid, meaning no halo exchange happens on that side.
func (h *Hier) NeighborOpen(global, dir Dim3) (nb Dim3, ok bool) {
	g := h.GlobalDims()
	nb = global.Add(dir)
	if nb.X < 0 || nb.X >= g.X || nb.Y < 0 || nb.Y >= g.Y || nb.Z < 0 || nb.Z >= g.Z {
		return Dim3{}, false
	}
	return nb, true
}

// NodeRank linearizes a node index (x fastest).
func (h *Hier) NodeRank(node Dim3) int {
	return node.X + h.NodeDims.X*(node.Y+h.NodeDims.Y*node.Z)
}

// NodeIndex inverts NodeRank.
func (h *Hier) NodeIndex(rank int) Dim3 {
	x := rank % h.NodeDims.X
	y := (rank / h.NodeDims.X) % h.NodeDims.Y
	z := rank / (h.NodeDims.X * h.NodeDims.Y)
	return Dim3{x, y, z}
}

// GPURank linearizes a GPU index within a node (x fastest).
func (h *Hier) GPURank(gpu Dim3) int {
	return gpu.X + h.GPUDims.X*(gpu.Y+h.GPUDims.Y*gpu.Z)
}

// GPUIndex inverts GPURank.
func (h *Hier) GPUIndex(rank int) Dim3 {
	x := rank % h.GPUDims.X
	y := (rank / h.GPUDims.X) % h.GPUDims.Y
	z := rank / (h.GPUDims.X * h.GPUDims.Y)
	return Dim3{x, y, z}
}

// Directions26 lists the 26 nonzero direction vectors of a 3D stencil
// neighborhood in a fixed, deterministic order.
func Directions26() []Dim3 {
	var out []Dim3
	for z := -1; z <= 1; z++ {
		for y := -1; y <= 1; y++ {
			for x := -1; x <= 1; x++ {
				if x == 0 && y == 0 && z == 0 {
					continue
				}
				out = append(out, Dim3{x, y, z})
			}
		}
	}
	return out
}

// Directions6 lists the six face direction vectors (paper Fig 1(a) stencils
// only exchange with face neighbors).
func Directions6() []Dim3 {
	return []Dim3{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}
}

// Directions18 lists the face and edge direction vectors (paper Fig 1(b)
// stencils use axis neighbors plus the diagonals within each plane: 6 faces
// + 12 edges, no corners).
func Directions18() []Dim3 {
	var out []Dim3
	for _, d := range Directions26() {
		nz := 0
		for _, v := range []int{d.X, d.Y, d.Z} {
			if v != 0 {
				nz++
			}
		}
		if nz <= 2 {
			out = append(out, d)
		}
	}
	return out
}

// HaloCells returns the number of grid points in the halo region for
// direction dir of a subdomain with the given size and stencil radius: full
// extent along zero components, radius along nonzero ones.
func HaloCells(size Dim3, dir Dim3, radius int) int {
	cells := 1
	dims := [3]int{size.X, size.Y, size.Z}
	dirs := [3]int{dir.X, dir.Y, dir.Z}
	for a := 0; a < 3; a++ {
		if dirs[a] == 0 {
			cells *= dims[a]
		} else {
			cells *= radius
		}
	}
	return cells
}

// CommVolume returns the total halo cells exchanged per step for the given
// partition grid of domain at the given stencil radius, counting all 26
// directions (self-exchanges included: the halo must be filled regardless of
// who owns the neighbor). This is the quantity minimized in Fig 3.
func CommVolume(domain, grid Dim3, radius int) int {
	if domain.X%grid.X != 0 || domain.Y%grid.Y != 0 || domain.Z%grid.Z != 0 {
		panic(fmt.Sprintf("part: CommVolume requires exact division: %v / %v", domain, grid))
	}
	sub := Dim3{domain.X / grid.X, domain.Y / grid.Y, domain.Z / grid.Z}
	per := 0
	for _, d := range Directions26() {
		per += HaloCells(sub, d, radius)
	}
	return per * grid.Vol()
}
