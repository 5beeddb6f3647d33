package jobspec

import "testing"

// BenchmarkSpecValidate prices admission on stencilserve's load-test job:
// one node, two ranks, a 12³ domain, radius 1, one quantity. Validate
// normalizes the spec and runs the engine's full static validator, which
// partitions the domain; the serving layer pays this on every submission
// and again for every journaled spec it recovers.
func BenchmarkSpecValidate(b *testing.B) {
	s := Default()
	s.RanksPerNode, s.Domain, s.Radius, s.Quantities = 2, "12", 1, 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
