// Package placement implements the paper's setup phase 2 (§III-B): assigning
// each node's subdomains to its GPUs by solving a quadratic assignment
// problem.
//
// The flow matrix w holds the exchange volume between every pair of
// subdomains on the node (determined by their shapes and adjacency, Fig 5);
// the distance matrix d is the elementwise reciprocal of the GPU-GPU
// bandwidth matrix discovered from node topology. The QAP minimizes
//
//	sum_{i,j} w[i][j] * d[f(i)][f(j)]
//
// over bijections f from subdomains to GPUs. As in the paper, the solver
// checks all GPU permutations: nodes have few GPUs, so exhaustive search is
// cheap (6! = 720).
package placement

import (
	"fmt"
	"math"

	"github.com/nodeaware/stencil/internal/halo"
	"github.com/nodeaware/stencil/internal/part"
)

// FlowMatrix computes the pairwise exchange volume in bytes between the
// GPU-space subdomains of one node. Entry [a][b] is the number of bytes
// subdomain a sends to subdomain b per exchange, summed over all directions
// whose periodic neighbor lands on the same node.
func FlowMatrix(h *part.Hier, node part.Dim3, radius, quantities, elemSize int) [][]float64 {
	return FlowMatrixBoundary(h, node, radius, quantities, elemSize, false)
}

// FlowMatrixBoundary is FlowMatrix with selectable boundary conditions: with
// open=true, steps off the domain edge exchange nothing instead of wrapping.
func FlowMatrixBoundary(h *part.Hier, node part.Dim3, radius, quantities, elemSize int, open bool) [][]float64 {
	n := h.GPUDims.Vol()
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	dirs := part.Directions26()
	for a := 0; a < n; a++ {
		ga := h.GPUIndex(a)
		_, size := h.Subdomain(node, ga)
		global := h.GlobalIndex(node, ga)
		for _, dir := range dirs {
			var nb part.Dim3
			if open {
				var ok bool
				nb, ok = h.NeighborOpen(global, dir)
				if !ok {
					continue
				}
			} else {
				nb = h.Neighbor(global, dir)
			}
			nbNode, nbGPU := h.Split(nb)
			if nbNode != node {
				continue
			}
			b := h.GPURank(nbGPU)
			if b == a {
				continue // self-exchange stays on one GPU; no link crossed
			}
			w[a][b] += float64(halo.ExchangeVolume(size, dir, radius, quantities, elemSize))
		}
	}
	return w
}

// DistanceMatrix converts a bandwidth matrix (bytes/second) into the QAP
// distance matrix: elementwise reciprocal with a zero diagonal.
func DistanceMatrix(bw [][]float64) [][]float64 {
	n := len(bw)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i == j {
				continue
			}
			if bw[i][j] <= 0 {
				panic(fmt.Sprintf("placement: nonpositive bandwidth %g between GPUs %d,%d", bw[i][j], i, j))
			}
			d[i][j] = 1 / bw[i][j]
		}
	}
	return d
}

// Cost evaluates the QAP objective for assignment f (f[i] = GPU of
// subdomain i).
func Cost(w, d [][]float64, f []int) float64 {
	var c float64
	for i := range w {
		for j := range w[i] {
			if i == j {
				continue
			}
			c += w[i][j] * d[f[i]][f[j]]
		}
	}
	return c
}

// Solve exhaustively searches all assignments and returns the minimizing
// permutation and its cost. Ties resolve to the lexicographically smallest
// permutation, keeping results deterministic.
func Solve(w, d [][]float64) ([]int, float64) {
	n := len(w)
	if n != len(d) {
		panic(fmt.Sprintf("placement: flow %d and distance %d dimensions differ", n, len(d)))
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := make([]int, n)
	copy(best, perm)
	bestCost := Cost(w, d, perm)
	permute(perm, 0, func(p []int) {
		if c := Cost(w, d, p); c < bestCost {
			bestCost = c
			copy(best, p)
		}
	})
	return best, bestCost
}

// permute enumerates permutations of p[k:] in lexicographic-ish recursive
// order, invoking fn for each complete permutation.
func permute(p []int, k int, fn func([]int)) {
	if k == len(p) {
		fn(p)
		return
	}
	for i := k; i < len(p); i++ {
		p[k], p[i] = p[i], p[k]
		permute(p, k+1, fn)
		p[k], p[i] = p[i], p[k]
	}
}

// Trivial returns the identity assignment: subdomain i on GPU i (the paper's
// baseline, where the linearized subdomain id maps directly to a device).
func Trivial(n int) []int {
	f := make([]int, n)
	for i := range f {
		f[i] = i
	}
	return f
}

// Assignment pairs a subdomain→GPU mapping with its cost, and provides the
// inverse lookup.
type Assignment struct {
	SubToGPU []int
	GPUToSub []int
	Cost     float64
}

// NewAssignment validates f as a permutation and builds the inverse map.
func NewAssignment(f []int, cost float64) *Assignment {
	inv := make([]int, len(f))
	seen := make([]bool, len(f))
	for i := range inv {
		inv[i] = -1
	}
	for s, g := range f {
		if g < 0 || g >= len(f) || seen[g] {
			panic(fmt.Sprintf("placement: %v is not a permutation", f))
		}
		seen[g] = true
		inv[g] = s
	}
	out := make([]int, len(f))
	copy(out, f)
	return &Assignment{SubToGPU: out, GPUToSub: inv, Cost: cost}
}

// Improvement returns the relative cost reduction of this assignment versus
// the trivial one: (trivialCost - Cost) / trivialCost. Zero when the trivial
// placement is already optimal or all costs are zero.
func Improvement(w, d [][]float64, a *Assignment) float64 {
	tc := Cost(w, d, Trivial(len(w)))
	if tc == 0 {
		return 0
	}
	return (tc - a.Cost) / tc
}

// Place runs the full phase-2 pipeline for one node: build the flow matrix,
// invert the bandwidth matrix, and solve the QAP. nodeAware=false returns
// the trivial placement (the Fig 11 baseline).
func Place(h *part.Hier, node part.Dim3, bw [][]float64, radius, quantities, elemSize int, nodeAware bool) *Assignment {
	return PlaceBoundary(h, node, bw, radius, quantities, elemSize, nodeAware, false)
}

// PlaceBoundary is Place with selectable boundary conditions.
func PlaceBoundary(h *part.Hier, node part.Dim3, bw [][]float64, radius, quantities, elemSize int, nodeAware, open bool) *Assignment {
	return PlaceFlow(FlowMatrixBoundary(h, node, radius, quantities, elemSize, open), bw, nodeAware)
}

// PlaceFlow is Place for a node whose flow matrix w is already built.
func PlaceFlow(w, bw [][]float64, nodeAware bool) *Assignment {
	d := DistanceMatrix(bw)
	if !nodeAware {
		f := Trivial(len(w))
		return NewAssignment(f, Cost(w, d, f))
	}
	f, c := SolveAuto(w, d)
	return NewAssignment(f, c)
}

// Memo solves each distinct placement problem once. The nodes of one job
// often pose the same problem (equal flow and bandwidth matrices), and
// PlaceFlow is deterministic, so a repeat returns the first solve's
// Assignment: callers share it and must not modify it. The zero Memo is
// ready to use.
type Memo struct {
	solved map[memoKey][]memoEntry
}

type memoKey struct {
	hash      uint64 // of both matrices' float64 bits
	nodeAware bool
}

type memoEntry struct {
	w, bw [][]float64
	a     *Assignment
}

// Place returns PlaceFlow(w, bw, nodeAware), solving it only if no earlier
// call had the same arguments bit for bit. It keeps w and bw, which the
// caller must not modify afterwards.
func (m *Memo) Place(w, bw [][]float64, nodeAware bool) *Assignment {
	k := memoKey{hashBits(hashBits(fnvOffset, w), bw), nodeAware}
	for _, e := range m.solved[k] {
		if sameBits(e.w, w) && sameBits(e.bw, bw) {
			return e.a
		}
	}
	a := PlaceFlow(w, bw, nodeAware)
	if m.solved == nil {
		m.solved = make(map[memoKey][]memoEntry)
	}
	m.solved[k] = append(m.solved[k], memoEntry{w: w, bw: bw, a: a})
	return a
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashBits folds a matrix's shape and float64 bits into an FNV-1a hash, a
// word at a time.
func hashBits(h uint64, m [][]float64) uint64 {
	h = (h ^ uint64(len(m))) * fnvPrime
	for _, row := range m {
		h = (h ^ uint64(len(row))) * fnvPrime
		for _, v := range row {
			h = (h ^ math.Float64bits(v)) * fnvPrime
		}
	}
	return h
}

// sameBits reports whether a and b have the same shape and float64 bits.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TotalFlow sums all off-diagonal flow; useful to sanity-check scenarios.
func TotalFlow(w [][]float64) float64 {
	var s float64
	for i := range w {
		for j := range w[i] {
			if i != j {
				s += w[i][j]
			}
		}
	}
	return s
}

// MaxAbsDiff reports the largest elementwise asymmetry |w[i][j]-w[j][i]|;
// stencil exchange volumes are symmetric, so this should be ~0.
func MaxAbsDiff(w [][]float64) float64 {
	var m float64
	for i := range w {
		for j := range w[i] {
			m = math.Max(m, math.Abs(w[i][j]-w[j][i]))
		}
	}
	return m
}
