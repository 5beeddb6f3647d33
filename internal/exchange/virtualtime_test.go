package exchange

import (
	"math"
	"testing"

	"github.com/nodeaware/stencil/internal/part"
)

// TestVirtualTimePinned pins the float64 bits of every iteration's virtual
// time for two Fig 12b weak-scaling configurations: 8 nodes under exact
// max-min fairness, and 2 nodes under a 1-hop fairness horizon. Virtual time
// is the paper's metric and must stay bit-stable across engine, waterfill
// and allocation work; a change that moves it on purpose re-records these
// values and says why.
func TestVirtualTimePinned(t *testing.T) {
	cases := []struct {
		name    string
		nodes   int
		horizon int
		want    []uint64
	}{
		{"fig12b-8n-exact", 8, 0, []uint64{0x3f916f9ecc4cdb38, 0x3f916f9e54cda100}},
		{"fig12b-2n-horizon1", 2, 1, []uint64{0x3f86c00ac976797d, 0x3f86c00a69bd6d0b}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The Fig 12b domain: 750^3 cells per GPU, six GPUs per node.
			edge := int(math.Round(750 * math.Cbrt(float64(c.nodes*6))))
			e, err := New(Options{
				Nodes: c.nodes, RanksPerNode: 6,
				Domain: part.Dim3{X: edge, Y: edge, Z: edge},
				Radius: 2, Quantities: 4, ElemSize: 4,
				Caps: CapsAll(), NodeAware: true,
				FairnessHorizon: c.horizon,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := e.Run(len(c.want)).Iterations
			for i, v := range got {
				if b := math.Float64bits(v); b != c.want[i] {
					t.Errorf("iteration %d: virtual time %v (bits %#x), want %v (bits %#x)",
						i, v, b, math.Float64frombits(c.want[i]), c.want[i])
				}
			}
		})
	}
}
