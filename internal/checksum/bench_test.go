package checksum

import "testing"

var sink uint64

func BenchmarkChecksum(b *testing.B) {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink ^= Sum64(buf)
	}
}
