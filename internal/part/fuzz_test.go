package part

import "testing"

// FuzzTiling checks, for arbitrary domain extents and partition counts, that
// the two-level hierarchical decomposition tiles the domain exactly: every
// cell is covered by exactly one subdomain (no gaps, no overlaps), the
// subdomain volumes sum to the domain volume, index round-trips hold, and
// Thinnest is the per-axis minimum subdomain extent.
//
// The seeded corpus runs under plain `go test`; `go test -fuzz=FuzzTiling
// ./internal/part` explores beyond it.
func FuzzTiling(f *testing.F) {
	f.Add(8, 8, 8, 2, 6)
	f.Add(12, 10, 8, 4, 6)
	f.Add(64, 64, 64, 8, 6)
	f.Add(7, 13, 29, 3, 4)
	f.Add(1, 1, 1, 1, 1)
	f.Add(31, 2, 2, 2, 2)
	f.Add(100, 1, 1, 5, 2)
	f.Add(9, 9, 9, 27, 1)
	f.Fuzz(func(t *testing.T, dx, dy, dz, nodes, gpus int) {
		// Clamp to tractable shapes: the exhaustive cell-cover check below is
		// O(domain volume).
		clamp := func(v, lo, hi int) int {
			if v < lo {
				return lo
			}
			if v > hi {
				return hi
			}
			return v
		}
		dx, dy, dz = clamp(dx, 1, 48), clamp(dy, 1, 48), clamp(dz, 1, 48)
		nodes = clamp(nodes, 1, 32)
		gpus = clamp(gpus, 1, 8)

		domain := Dim3{X: dx, Y: dy, Z: dz}
		h, err := NewHier(domain, nodes, gpus)
		if err != nil {
			// Domain too small for the split — a legitimate rejection, not a
			// tiling bug.
			return
		}

		cover := make([]int, domain.Vol())
		cellIdx := func(x, y, z int) int { return (z*dy+y)*dx + x }
		var volSum int
		// Thinnest must be the per-axis minimum over every subdomain.
		thin := domain
		for nr := 0; nr < nodes; nr++ {
			node := h.NodeIndex(nr)
			if h.NodeRank(node) != nr {
				t.Fatalf("NodeRank/NodeIndex round-trip broke at %d -> %v", nr, node)
			}
			for gr := 0; gr < gpus; gr++ {
				gpu := h.GPUIndex(gr)
				if h.GPURank(gpu) != gr {
					t.Fatalf("GPURank/GPUIndex round-trip broke at %d -> %v", gr, gpu)
				}
				origin, size := h.Subdomain(node, gpu)
				if size.X < 1 || size.Y < 1 || size.Z < 1 {
					t.Fatalf("empty subdomain node %v gpu %v: size %v", node, gpu, size)
				}
				volSum += size.Vol()
				thin = Dim3{X: min(thin.X, size.X), Y: min(thin.Y, size.Y), Z: min(thin.Z, size.Z)}
				for z := origin.Z; z < origin.Z+size.Z; z++ {
					for y := origin.Y; y < origin.Y+size.Y; y++ {
						for x := origin.X; x < origin.X+size.X; x++ {
							if x < 0 || x >= dx || y < 0 || y >= dy || z < 0 || z >= dz {
								t.Fatalf("subdomain node %v gpu %v exceeds domain: cell (%d,%d,%d)", node, gpu, x, y, z)
							}
							cover[cellIdx(x, y, z)]++
						}
					}
				}

				// Global index round-trip.
				g := h.GlobalIndex(node, gpu)
				n2, g2 := h.Split(g)
				if n2 != node || g2 != gpu {
					t.Fatalf("GlobalIndex/Split round-trip broke: (%v,%v) -> %v -> (%v,%v)", node, gpu, g, n2, g2)
				}

				// Periodic neighbors must stay on the grid and invert.
				for _, dir := range Directions26() {
					nb := h.Neighbor(g, dir)
					gd := h.GlobalDims()
					if nb.X < 0 || nb.X >= gd.X || nb.Y < 0 || nb.Y >= gd.Y || nb.Z < 0 || nb.Z >= gd.Z {
						t.Fatalf("Neighbor(%v, %v) = %v outside grid %v", g, dir, nb, gd)
					}
					back := h.Neighbor(nb, Dim3{X: -dir.X, Y: -dir.Y, Z: -dir.Z})
					if back != g {
						t.Fatalf("Neighbor not invertible: %v + %v = %v, back = %v", g, dir, nb, back)
					}
				}
			}
		}
		if got := h.Thinnest(); got != thin {
			t.Fatalf("Thinnest() = %v, smallest subdomain extents are %v", got, thin)
		}
		if volSum != domain.Vol() {
			t.Fatalf("subdomain volumes sum to %d, domain is %d", volSum, domain.Vol())
		}
		for z := 0; z < dz; z++ {
			for y := 0; y < dy; y++ {
				for x := 0; x < dx; x++ {
					if c := cover[cellIdx(x, y, z)]; c != 1 {
						t.Fatalf("cell (%d,%d,%d) covered %d times", x, y, z, c)
					}
				}
			}
		}
	})
}
