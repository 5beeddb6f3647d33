package halo

import (
	"testing"

	"github.com/nodeaware/stencil/internal/part"
)

func benchDomain() *Domain {
	return NewDomain(part.Dim3{X: 128, Y: 128, Z: 128}, 2, 4, 4, true)
}

func BenchmarkPackFace(b *testing.B) {
	d := benchDomain()
	dir := part.Dim3{X: 1}
	buf := make([]byte, d.HaloBytes(dir))
	b.SetBytes(d.HaloBytes(dir))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Pack(buf, dir)
	}
}

func BenchmarkUnpackFace(b *testing.B) {
	d := benchDomain()
	dir := part.Dim3{X: 1}
	buf := make([]byte, d.HaloBytes(dir))
	b.SetBytes(d.HaloBytes(dir))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Unpack(buf, dir)
	}
}

func BenchmarkSelfExchange(b *testing.B) {
	d := benchDomain()
	dir := part.Dim3{Z: 1}
	b.SetBytes(d.HaloBytes(dir))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SelfExchange(dir)
	}
}

var checksumSink uint64

// BenchmarkRegionChecksum hashes a +X face (8-byte runs, the worst case for
// per-run overhead) and a +Z face (512-byte runs).
func BenchmarkRegionChecksum(b *testing.B) {
	d := benchDomain()
	for _, c := range []struct {
		name string
		dir  part.Dim3
	}{{"XFace", part.Dim3{X: 1}}, {"ZFace", part.Dim3{Z: 1}}} {
		b.Run(c.name, func(b *testing.B) {
			reg := d.SendRegion(c.dir)
			d.RegionChecksum(reg) // fills the scratch pool
			b.SetBytes(d.HaloBytes(c.dir))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checksumSink ^= d.RegionChecksum(reg)
			}
		})
	}
}
