package mpi

import "testing"

// BenchmarkHostTransfer drives b.N host-transport messages of 64 KiB, one
// after another, between two ranks of a two-node machine with two ranks per
// node: "intra" between the ranks of node 0 (shared memory, the receiver's
// progress engine), "inter" across the NIC. Messages are posted from event
// context, so the cost is the transport's alone: matching, the transfer
// chain, the engine and the flow network.
func BenchmarkHostTransfer(b *testing.B) {
	for _, c := range []struct {
		name string
		dst  int
	}{{"intra", 1}, {"inter", 2}} {
		b.Run(c.name, func(b *testing.B) {
			const bytes = 64 << 10
			e, rt, w := setup(2, 2, false, false)
			src := rt.MallocHost(0, 0, bytes)
			dst := rt.MallocHost(w.Rank(c.dst).Node, w.Rank(c.dst).Socket, bytes)
			n := 0
			var post func()
			post = func() {
				if n == b.N {
					return
				}
				n++
				w.Rank(0).Isend(c.dst, 0, src, 0, bytes)
				w.Rank(c.dst).Irecv(0, 0, dst, 0, bytes).Done().OnFire(post)
			}
			e.At(0, post)
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
			if n != b.N {
				b.Fatalf("%d of %d messages completed", n, b.N)
			}
		})
	}
}
