package exchange

import (
	"math"
	"strconv"
	"testing"

	"github.com/nodeaware/stencil/internal/part"
)

// fig12bOpts is the paper's Fig 12b weak-scaling configuration at the given
// node count: six ranks and six GPUs per node, a cube of 750·∛GPUs cells a
// side, radius 2, four quantities, every transfer method, node-aware
// placement, time-only.
func fig12bOpts(nodes int) Options {
	edge := int(math.Round(750 * math.Cbrt(float64(nodes*6))))
	return Options{
		Nodes: nodes, RanksPerNode: 6, Domain: part.Dim3{X: edge, Y: edge, Z: edge},
		Radius: 2, Quantities: 4, ElemSize: 4, Caps: CapsAll(), NodeAware: true,
	}
}

// BenchmarkNew prices setup (partition, per-node placement, plan
// specialization) on the Fig 12b configuration at 8 and 64 nodes.
func BenchmarkNew(b *testing.B) {
	for _, nodes := range []int{8, 64} {
		b.Run(strconv.Itoa(nodes)+"nodes", func(b *testing.B) {
			opts := fig12bOpts(nodes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := New(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestNewAllocations bounds the heap allocations of one 8-node Fig 12b
// setup. It measured 24,131 with one heap object per plan, stream and
// buffer and every name formatted up front, and 2,720 with slabs and names
// built on demand; the bound leaves room for small changes but not for a
// return to per-object setup.
func TestNewAllocations(t *testing.T) {
	const bound = 4000
	opts := fig12bOpts(8)
	got := testing.AllocsPerRun(3, func() {
		if _, err := New(opts); err != nil {
			t.Fatal(err)
		}
	})
	if got > bound {
		t.Errorf("8-node New made %.0f allocations, bound %d", got, bound)
	}
}

// BenchmarkRun prices one steady-state exchange on the Fig 12b
// configuration at 8 and 64 nodes: setup and a warm-up Run(1) happen before
// the timer, and each iteration is one more Run(1).
func BenchmarkRun(b *testing.B) {
	for _, nodes := range []int{8, 64} {
		b.Run(strconv.Itoa(nodes)+"nodes", func(b *testing.B) {
			e, err := New(fig12bOpts(nodes))
			if err != nil {
				b.Fatal(err)
			}
			e.Run(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(1)
			}
		})
	}
}

// TestRunAllocations bounds the heap allocations of one steady-state 8-node
// Fig 12b exchange (New and a warm-up Run(1) first). It measured 88,079
// with a heap signal, closure list and step slice per stream op, message
// and state machine, and 14,097 with signals and events embedded in their
// owners, closure-free ops and flows, and plan-owned state machines; the
// bound leaves room for small changes but not for a return to per-op
// garbage.
func TestRunAllocations(t *testing.T) {
	const bound = 40000
	e, err := New(fig12bOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(1)
	if got := testing.AllocsPerRun(2, func() { e.Run(1) }); got > bound {
		t.Errorf("8-node steady-state exchange made %.0f allocations, bound %d", got, bound)
	}
}
