package exchange

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/nodeaware/stencil/internal/part"
)

// TestRandomConfigCorrectnessProperty is the heavyweight end-to-end
// property: random domain shapes, radii, quantities, rank layouts,
// capability sets, boundaries, and extensions. Validate must fail exactly
// when New does, and on every accepted configuration every halo cell must
// hold its neighbor's interior value after one exchange. At least half of
// a fixed draw sequence must be accepted, so the property cannot hold
// vacuously; fresh draws on every run then widen the coverage.
func TestRandomConfigCorrectnessProperty(t *testing.T) {
	var accepted, drawn int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := Options{
			Nodes:        []int{1, 2, 3}[rng.Intn(3)],
			RanksPerNode: []int{1, 2, 3, 6}[rng.Intn(4)],
			Domain: part.Dim3{
				X: rng.Intn(22) + 6,
				Y: rng.Intn(22) + 6,
				Z: rng.Intn(22) + 6,
			},
			Radius:     rng.Intn(4) + 1,
			Quantities: rng.Intn(3) + 1,
			ElemSize:   4,
			Caps: Capabilities{
				Colocated: rng.Intn(2) == 0,
				Peer:      rng.Intn(2) == 0,
				Kernel:    rng.Intn(2) == 0,
			},
			CUDAAware:       rng.Intn(3) == 0,
			NodeAware:       rng.Intn(2) == 0,
			RealData:        true,
			Neighborhood:    26, // full halos are what verifyHalos checks
			AggregateRemote: rng.Intn(3) == 0,
			NoOverlap:       rng.Intn(4) == 0,
			Overlap:         rng.Intn(8) == 0,
			Adaptive:        rng.Intn(2) == 0,
			AdaptPlacement:  rng.Intn(8) == 0,
			SendRetries:     rng.Intn(16) - 1,
		}
		drawn++
		verr := opts.Validate()
		e, err := New(opts)
		if (verr == nil) != (err == nil) {
			t.Logf("seed %d opts %+v: Validate error %v, New error %v", seed, opts, verr, err)
			return false
		}
		if err != nil {
			return true
		}
		accepted++
		fillGlobal(e)
		e.Run(rng.Intn(2) + 1)
		// Inline verification (can't t.Fatal inside quick.Check cleanly).
		d := e.Opts.Domain
		wrap := func(v, n int) int { return ((v % n) + n) % n }
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
							got := le32(sub.Dom.At(q, x, y, z))
							if got != want {
								t.Logf("seed %d opts %+v: sub %v halo (%d,%d,%d) q%d got %#x want %#x",
									seed, opts, sub.Global, x, y, z, q, got, want)
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	// A fixed draw sequence makes the acceptance floor deterministic.
	fixed := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}
	// Fresh draws on every run keep widening the coverage; f logs the seed
	// of any failing draw.
	fresh := &quick.Config{MaxCount: 16}
	if testing.Short() {
		fixed.MaxCount, fresh.MaxCount = 8, 4
	}
	if err := quick.Check(f, fixed); err != nil {
		t.Error(err)
	}
	if 2*accepted < drawn {
		t.Errorf("only %d of %d fixed random configurations accepted; the property needs at least half", accepted, drawn)
	}
	if err := quick.Check(f, fresh); err != nil {
		t.Error(err)
	}
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// TestExchangeDeterminism pins that identical configurations produce
// bit-identical virtual timings across runs — the foundation of every
// benchmark in the repository.
func TestExchangeDeterminism(t *testing.T) {
	run := func() []float64 {
		opts := Options{
			Nodes:        2,
			RanksPerNode: 6,
			Domain:       part.Dim3{X: 1717, Y: 1717, Z: 1717},
			Radius:       2,
			Quantities:   4,
			ElemSize:     4,
			Caps:         CapsAll(),
			NodeAware:    true,
		}
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return e.Run(3).Iterations
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration %d differs across runs: %.9g vs %.9g", i, a[i], b[i])
		}
	}
}

// TestLadderMonotoneProperty: for random single-node configurations, each
// capability rung is at least as fast as the one below it — enabling a
// method can reroute messages only when it is selected first-applicable,
// and every specialized method outperforms the staged path it replaces.
func TestLadderMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := Options{
			Nodes:        1,
			RanksPerNode: []int{1, 2, 3, 6}[rng.Intn(4)],
			Domain: part.Dim3{
				X: rng.Intn(800) + 400,
				Y: rng.Intn(800) + 400,
				Z: rng.Intn(800) + 400,
			},
			Radius:     rng.Intn(3) + 1,
			Quantities: rng.Intn(4) + 1,
			ElemSize:   4,
			NodeAware:  true,
		}
		var times []float64
		for _, caps := range []Capabilities{CapsRemote(), CapsColo(), CapsPeer(), CapsAll()} {
			o := base
			o.Caps = caps
			e, err := New(o)
			if err != nil {
				return true
			}
			times = append(times, e.Run(1).Min())
		}
		for i := 1; i < len(times); i++ {
			// The paper's claim is about bandwidth-dominated halos; in
			// overhead-dominated regimes (small messages) a rung can lose a
			// few percent to extra kernel launches, so allow 10% slack.
			if times[i] > times[i-1]*1.10 {
				t.Logf("seed %d: ladder not monotone: %v (opts %+v)", seed, times, base)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
