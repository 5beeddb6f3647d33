package flownet

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/nodeaware/stencil/internal/sim"
)

// BenchmarkFlowChurn measures rate-rebalance cost under heavy flow churn on
// a hub-and-spoke network (the pattern halo exchanges produce).
func BenchmarkFlowChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		n := New(e)
		hub := NewLink("hub", 100e9)
		var spokes []*Link
		for s := 0; s < 12; s++ {
			spokes = append(spokes, NewLink(fmt.Sprintf("s%d", s), 50e9))
		}
		for f := 0; f < 200; f++ {
			f := f
			e.At(float64(f)*1e-5, func() {
				n.StartFlow("f", []*Link{spokes[f%12], hub}, 1e6)
			})
		}
		e.Run()
	}
}

// clusterNet builds a Summit-like fabric of nodes (six GPUs in two
// three-GPU triads per node: per-GPU socket links each way, directed
// in-triad NVLinks, per-socket host memory and X-Bus, NIC out and in) and
// draws paths from the halo exchange's route classes with a fixed seed:
// in-triad peer copies, cross-socket peer copies, host-staged copies and
// inter-node sends. Each path carries copies flows, as each quantity of a
// halo does. Equal capacities per class and equal flow sizes give the
// exactly tied shares a symmetric exchange produces. It returns the
// network with every rate allocated, plus the seed path of a
// representative flow arrival.
func clusterNet(nodes, paths, copies, maxHops int) (*Network, []*Link) {
	const gb = 1 << 30
	e := sim.NewEngine()
	n := New(e)
	n.MaxHops = maxHops
	type node struct {
		up, down, mem, xbus []*Link
		nvl                 map[[2]int]*Link
		out, in             *Link
	}
	ns := make([]node, nodes)
	for i := range ns {
		nd := &ns[i]
		nd.nvl = map[[2]int]*Link{}
		for g := 0; g < 6; g++ {
			nd.up = append(nd.up, NewLink(fmt.Sprintf("n%d.g%d.up", i, g), 46*gb))
			nd.down = append(nd.down, NewLink(fmt.Sprintf("n%d.g%d.down", i, g), 46*gb))
		}
		for a := 0; a < 6; a++ {
			for b := 0; b < 6; b++ {
				if a != b && a/3 == b/3 {
					nd.nvl[[2]int{a, b}] = NewLink(fmt.Sprintf("n%d.nvlink.%d-%d", i, a, b), 46*gb)
				}
			}
		}
		for s := 0; s < 2; s++ {
			nd.mem = append(nd.mem, NewLink(fmt.Sprintf("n%d.s%d.mem", i, s), 60*gb))
			nd.xbus = append(nd.xbus, NewLink(fmt.Sprintf("n%d.xbus.%d", i, s), 58*gb))
		}
		nd.out = NewLink(fmt.Sprintf("n%d.nic.out", i), 25*gb)
		nd.in = NewLink(fmt.Sprintf("n%d.nic.in", i), 25*gb)
	}
	rng := rand.New(rand.NewSource(1))
	var seed []*Link
	for f := 0; f < paths; f++ {
		src := rng.Intn(nodes)
		nd := &ns[src]
		a := rng.Intn(6)
		b := (a + 1 + rng.Intn(5)) % 6
		var path []*Link
		switch k := rng.Intn(4); {
		case k == 0 && a/3 == b/3:
			path = []*Link{nd.nvl[[2]int{a, b}]}
		case k <= 1:
			path = []*Link{nd.up[a], nd.xbus[a/3], nd.down[b]}
		case k == 2:
			path = []*Link{nd.up[a], nd.mem[a/3], nd.down[b]}
		default:
			dst := &ns[(src+1+rng.Intn(nodes-1))%nodes]
			path = []*Link{nd.up[a], nd.mem[a/3], nd.out, dst.in, dst.mem[b/3], dst.down[b]}
		}
		for q := 0; q < copies; q++ {
			n.StartFlow(fmt.Sprintf("f%d.%d", f, q), path, 1e9)
		}
		seed = path
	}
	n.flushPending()
	return n, seed
}

// BenchmarkRebalance measures one water-fill over a fixed component: the
// cost a flow arrival or departure pays. exact32 matches the components of
// an exact-fairness 32-node exchange (about 250 links and 1000 flows per
// rebalance); horizon64 matches the 1-hop horizon components of a 64-node
// exchange (about 46 links and 80 flows).
func BenchmarkRebalance(b *testing.B) {
	for _, c := range []struct {
		name                       string
		nodes, paths, copies, hops int
	}{
		{"exact32", 14, 1000, 1, 0},
		{"horizon64", 64, 6000, 2, 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			n, seed := clusterNet(c.nodes, c.paths, c.copies, c.hops)
			n.rebalance(seed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.rebalance(seed)
			}
			b.ReportMetric(float64(len(n.compLinks)), "links")
			b.ReportMetric(float64(len(n.compFlows)), "flows")
		})
	}
}
