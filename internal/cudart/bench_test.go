package cudart

import (
	"testing"

	"github.com/nodeaware/stencil/internal/sim"
)

// BenchmarkStreamOps prices one stream op from enqueue to completion: a
// kernel gated on 0, 1 or 2 kernels of other streams (which each iteration
// also enqueues), and a 1 MiB device-to-host MemcpyAsync, whose completion
// is a flow. Every op has a predecessor on its stream, so stream order is
// one more dependency.
func BenchmarkStreamOps(b *testing.B) {
	for _, c := range []struct {
		name string
		deps int
		copy bool
	}{
		{"kernel/deps=0", 0, false},
		{"kernel/deps=1", 1, false},
		{"kernel/deps=2", 2, false},
		{"memcpy", 0, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			e, rt := newRT(1, false)
			d := rt.DeviceAt(0, 0)
			s := d.NewStream("bench")
			others := []*Stream{d.NewStream("dep0"), d.NewStream("dep1")}
			const size = 1 << 20
			host, dev := rt.MallocHost(0, 0, size), d.Malloc(size)
			var depBuf [2]*sim.Signal
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deps := depBuf[:0]
				for j := 0; j < c.deps; j++ {
					deps = append(deps, others[j].Kernel("dep", size, 1e12, nil))
				}
				s.Kernel("prev", 0, 0, nil)
				if c.copy {
					s.MemcpyAsync("d2h", host, 0, dev, 0, size)
				} else {
					s.Kernel("k", size, 1e12, nil, deps...)
				}
				e.Run()
			}
		})
	}
}
