package halo

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/nodeaware/stencil/internal/checksum"
	"github.com/nodeaware/stencil/internal/part"
)

func fill(d *Domain, q int, f func(x, y, z int) uint32) {
	r := d.Radius
	for z := -r; z < d.Size.Z+r; z++ {
		for y := -r; y < d.Size.Y+r; y++ {
			for x := -r; x < d.Size.X+r; x++ {
				binary.LittleEndian.PutUint32(d.At(q, x, y, z), f(x, y, z))
			}
		}
	}
}

func read(d *Domain, q, x, y, z int) uint32 {
	return binary.LittleEndian.Uint32(d.At(q, x, y, z))
}

// enc gives every interior coordinate a unique value.
func enc(x, y, z int) uint32 {
	return uint32((x+8)<<16 | (y+8)<<8 | (z + 8))
}

func TestRegions(t *testing.T) {
	d := NewDomain(part.Dim3{X: 8, Y: 6, Z: 4}, 2, 1, 4, false)
	// +x face send region: last 2 interior columns.
	s := d.SendRegion(part.Dim3{X: 1})
	if s.Lo != (part.Dim3{X: 6, Y: 0, Z: 0}) || s.Hi != (part.Dim3{X: 8, Y: 6, Z: 4}) {
		t.Errorf("+x send region = %+v", s)
	}
	// +x recv region: exterior columns.
	r := d.RecvRegion(part.Dim3{X: 1})
	if r.Lo != (part.Dim3{X: 8, Y: 0, Z: 0}) || r.Hi != (part.Dim3{X: 10, Y: 6, Z: 4}) {
		t.Errorf("+x recv region = %+v", r)
	}
	// -y face.
	s = d.SendRegion(part.Dim3{Y: -1})
	if s.Lo != (part.Dim3{}) || s.Hi != (part.Dim3{X: 8, Y: 2, Z: 4}) {
		t.Errorf("-y send region = %+v", s)
	}
	r = d.RecvRegion(part.Dim3{Y: -1})
	if r.Lo != (part.Dim3{X: 0, Y: -2, Z: 0}) || r.Hi != (part.Dim3{X: 8, Y: 0, Z: 4}) {
		t.Errorf("-y recv region = %+v", r)
	}
	// Corner (+x,+y,+z): r^3 cells.
	c := d.SendRegion(part.Dim3{X: 1, Y: 1, Z: 1})
	if c.Cells() != 8 {
		t.Errorf("corner cells = %d, want 8", c.Cells())
	}
}

func TestHaloBytes(t *testing.T) {
	d := NewDomain(part.Dim3{X: 10, Y: 20, Z: 30}, 3, 4, 4, false)
	// +x face: 3*20*30 cells * 4 quantities * 4 bytes.
	if got := d.HaloBytes(part.Dim3{X: 1}); got != 3*20*30*4*4 {
		t.Errorf("+x halo bytes = %d", got)
	}
	// Edge (x,y): 3*3*30 cells.
	if got := d.HaloBytes(part.Dim3{X: 1, Y: -1}); got != 3*3*30*4*4 {
		t.Errorf("xy edge halo bytes = %d", got)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	size := part.Dim3{X: 6, Y: 5, Z: 4}
	src := NewDomain(size, 2, 3, 4, true)
	dst := NewDomain(size, 2, 3, 4, true)
	for q := 0; q < 3; q++ {
		fill(src, q, func(x, y, z int) uint32 { return enc(x, y, z) + uint32(q)<<24 })
	}
	for _, dir := range part.Directions26() {
		buf := make([]byte, src.HaloBytes(dir))
		n := src.Pack(buf, dir)
		if n != int64(len(buf)) {
			t.Fatalf("pack returned %d, want %d", n, len(buf))
		}
		// The receiver unpacks into the halo on the opposite side.
		neg := part.Dim3{X: -dir.X, Y: -dir.Y, Z: -dir.Z}
		dst.Unpack(buf, neg)
		// Verify every halo cell matches the corresponding source interior
		// cell: dst's recv region for neg maps to src's send region for dir.
		sreg := src.SendRegion(dir)
		dreg := dst.RecvRegion(neg)
		sx, sy, sz := sreg.Hi.X-sreg.Lo.X, sreg.Hi.Y-sreg.Lo.Y, sreg.Hi.Z-sreg.Lo.Z
		dx, dy, dz := dreg.Hi.X-dreg.Lo.X, dreg.Hi.Y-dreg.Lo.Y, dreg.Hi.Z-dreg.Lo.Z
		if sx != dx || sy != dy || sz != dz {
			t.Fatalf("dir %v: region shapes differ: send %dx%dx%d recv %dx%dx%d", dir, sx, sy, sz, dx, dy, dz)
		}
		for q := 0; q < 3; q++ {
			for z := 0; z < sz; z++ {
				for y := 0; y < sy; y++ {
					for x := 0; x < sx; x++ {
						want := read(src, q, sreg.Lo.X+x, sreg.Lo.Y+y, sreg.Lo.Z+z)
						got := read(dst, q, dreg.Lo.X+x, dreg.Lo.Y+y, dreg.Lo.Z+z)
						if got != want {
							t.Fatalf("dir %v q %d cell (%d,%d,%d): got %x want %x", dir, q, x, y, z, got, want)
						}
					}
				}
			}
		}
	}
}

func TestPackDoesNotReadHalo(t *testing.T) {
	d := NewDomain(part.Dim3{X: 4, Y: 4, Z: 4}, 1, 1, 4, true)
	fill(d, 0, func(x, y, z int) uint32 {
		if x < 0 || x >= 4 || y < 0 || y >= 4 || z < 0 || z >= 4 {
			return 0xdeadbeef // halo poison
		}
		return enc(x, y, z)
	})
	for _, dir := range part.Directions26() {
		buf := make([]byte, d.HaloBytes(dir))
		d.Pack(buf, dir)
		for i := 0; i+4 <= len(buf); i += 4 {
			if binary.LittleEndian.Uint32(buf[i:]) == 0xdeadbeef {
				t.Fatalf("dir %v: pack leaked halo poison", dir)
			}
		}
	}
}

func TestSelfExchangePeriodic(t *testing.T) {
	d := NewDomain(part.Dim3{X: 5, Y: 4, Z: 3}, 1, 2, 4, true)
	for q := 0; q < 2; q++ {
		fill(d, q, func(x, y, z int) uint32 { return enc(x, y, z) + uint32(q)<<24 })
	}
	// Self-exchange in +x: my +x halo receives my own -x-adjacent interior
	// (periodic wrap).
	d.SelfExchange(part.Dim3{X: 1})
	for q := 0; q < 2; q++ {
		for z := 0; z < 3; z++ {
			for y := 0; y < 4; y++ {
				got := read(d, q, 5, y, z) // halo cell just past x max
				want := enc(0, y, z) + uint32(q)<<24
				if got != want {
					t.Fatalf("halo (5,%d,%d) = %x, want wrap of x=0 (%x)", y, z, got, want)
				}
			}
		}
	}
	// And -x: halo at x=-1 receives interior x=4.
	d.SelfExchange(part.Dim3{X: -1})
	if got, want := read(d, 0, -1, 2, 1), enc(4, 2, 1); got != want {
		t.Fatalf("halo (-1,2,1) = %x, want %x", got, want)
	}
}

func TestSelfExchangeDiagonal(t *testing.T) {
	d := NewDomain(part.Dim3{X: 4, Y: 4, Z: 4}, 1, 1, 4, true)
	fill(d, 0, func(x, y, z int) uint32 { return enc(x, y, z) })
	d.SelfExchange(part.Dim3{X: 1, Y: 1})
	// Corner halo (4,4,z) should hold interior (0,0,z).
	for z := 0; z < 4; z++ {
		if got, want := read(d, 0, 4, 4, z), enc(0, 0, z); got != want {
			t.Fatalf("edge halo (4,4,%d) = %x, want %x", z, got, want)
		}
	}
}

// RegionChecksum is checksum.Sum64 of Pack's serialization, and a landed
// receive region hashes like the send region it came from. Odd X extents
// give Y and Z faces runs of 4 mod 8 bytes; radius 2 gives X faces the
// 8-byte runs of the word-move kernel, radius 1 4-byte runs.
func TestRegionChecksumMatchesPack(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		size   part.Dim3
		radius int
	}{
		{part.Dim3{X: 5, Y: 4, Z: 3}, 1},
		{part.Dim3{X: 7, Y: 6, Z: 5}, 2},
	} {
		for _, quantities := range []int{1, 3} {
			src := NewDomain(c.size, c.radius, quantities, 4, true)
			dst := NewDomain(c.size, c.radius, quantities, 4, true)
			for q := 0; q < quantities; q++ {
				fill(src, q, func(x, y, z int) uint32 { return rng.Uint32() })
				fill(dst, q, func(x, y, z int) uint32 { return rng.Uint32() })
			}
			for _, dir := range part.Directions26() {
				buf := make([]byte, src.HaloBytes(dir))
				src.Pack(buf, dir)
				sent := src.RegionChecksum(src.SendRegion(dir))
				if want := checksum.Sum64(buf); sent != want {
					t.Fatalf("%v r%d q%d dir %v: RegionChecksum %#x, Sum64 of Pack %#x",
						c.size, c.radius, quantities, dir, sent, want)
				}
				neg := part.Dim3{X: -dir.X, Y: -dir.Y, Z: -dir.Z}
				dst.Unpack(buf, neg)
				if got := dst.RegionChecksum(dst.RecvRegion(neg)); got != sent {
					t.Fatalf("%v r%d q%d dir %v: landed region hashes %#x, sent %#x",
						c.size, c.radius, quantities, dir, got, sent)
				}
			}
		}
	}
	timeOnly := NewDomain(part.Dim3{X: 5, Y: 4, Z: 3}, 1, 3, 4, false)
	if got := timeOnly.RegionChecksum(timeOnly.SendRegion(part.Dim3{X: 1})); got != 0 {
		t.Errorf("time-only RegionChecksum = %#x, want 0", got)
	}
}

func TestTimeOnlyMode(t *testing.T) {
	d := NewDomain(part.Dim3{X: 512, Y: 512, Z: 512}, 2, 4, 4, false)
	if d.Real() {
		t.Error("time-only domain claims real data")
	}
	// Pack/unpack/self-exchange report sizes without touching memory.
	b := d.Pack(nil, part.Dim3{X: 1})
	if b != 2*512*512*4*4 {
		t.Errorf("time-only pack bytes = %d", b)
	}
	if d.Unpack(nil, part.Dim3{X: 1}) != b {
		t.Error("unpack size mismatch")
	}
	if d.SelfExchange(part.Dim3{X: 1}) != b {
		t.Error("self-exchange size mismatch")
	}
	if d.AllocBytes() != int64(516*516*516)*4*4 {
		t.Errorf("alloc bytes = %d", d.AllocBytes())
	}
}

func TestMaxHaloBytes(t *testing.T) {
	d := NewDomain(part.Dim3{X: 100, Y: 10, Z: 10}, 1, 1, 4, false)
	// Largest face is y/z-normal: 100*10 cells.
	got := d.MaxHaloBytes(part.Directions26())
	if got != 100*10*1*4 {
		t.Errorf("MaxHaloBytes = %d, want %d", got, 100*10*4)
	}
}

func TestExchangeVolume(t *testing.T) {
	// Fig 5: subdomains of MxNxP exchange an MxN face in z, MxP in y.
	a := part.Dim3{X: 3, Y: 5, Z: 7}
	if got := ExchangeVolume(a, part.Dim3{Z: 1}, 1, 1, 4); got != 3*5*4 {
		t.Errorf("z face volume = %d", got)
	}
	if got := ExchangeVolume(a, part.Dim3{Y: 1}, 1, 1, 4); got != 3*7*4 {
		t.Errorf("y face volume = %d", got)
	}
	if got := ExchangeVolume(a, part.Dim3{X: 1}, 2, 4, 4); got != 2*5*7*4*4 {
		t.Errorf("x face volume r=2 q=4 = %d", got)
	}
}

func TestPackBufferTooSmallPanics(t *testing.T) {
	d := NewDomain(part.Dim3{X: 4, Y: 4, Z: 4}, 1, 1, 4, true)
	defer func() {
		if recover() == nil {
			t.Error("undersized pack buffer did not panic")
		}
	}()
	d.Pack(make([]byte, 4), part.Dim3{X: 1})
}

func TestAtOutOfRangePanics(t *testing.T) {
	d := NewDomain(part.Dim3{X: 4, Y: 4, Z: 4}, 1, 1, 4, true)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range At did not panic")
		}
	}()
	d.At(0, 6, 0, 0)
}

// Property: for random domain shapes and all 26 directions, pack-then-unpack
// into a second identical domain reproduces the source region exactly.
// TestRowMatchesAt: a row slice is the cells At returns, back to back, for
// interior and halo runs alike, and its bounds are the shell's.
func TestRowMatchesAt(t *testing.T) {
	d := NewDomain(part.Dim3{X: 5, Y: 3, Z: 2}, 2, 2, 8, true)
	for i := range d.data[1] {
		d.data[1][i] = byte(i * 7)
	}
	for _, c := range []struct{ x0, x1, y, z int }{
		{0, 5, 0, 0}, {-2, 7, -2, 3}, {-2, 0, 1, 1}, {5, 7, 2, -1}, {3, 3, 0, 0},
	} {
		row := d.Row(1, c.x0, c.x1, c.y, c.z)
		if len(row) != (c.x1-c.x0)*d.ElemSize {
			t.Fatalf("row %+v: %d bytes", c, len(row))
		}
		for x := c.x0; x < c.x1; x++ {
			off := (x - c.x0) * d.ElemSize
			if !bytes.Equal(row[off:off+d.ElemSize], d.At(1, x, c.y, c.z)) {
				t.Errorf("row %+v: cell %d differs from At", c, x)
			}
		}
	}
	for _, c := range []struct{ x0, x1, y, z int }{
		{-3, 0, 0, 0}, {0, 8, 0, 0}, {0, 5, 5, 0}, {0, 5, 0, -3}, {2, 1, 0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("row %+v outside the shell did not panic", c)
				}
			}()
			d.Row(0, c.x0, c.x1, c.y, c.z)
		}()
	}
}

func TestPackUnpackProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := part.Dim3{X: rng.Intn(6) + 2, Y: rng.Intn(6) + 2, Z: rng.Intn(6) + 2}
		radius := rng.Intn(2) + 1
		q := rng.Intn(3) + 1
		src := NewDomain(size, radius, q, 4, true)
		dst := NewDomain(size, radius, q, 4, true)
		for qi := 0; qi < q; qi++ {
			fill(src, qi, func(x, y, z int) uint32 { return rng.Uint32() })
		}
		dir := part.Directions26()[rng.Intn(26)]
		buf := make([]byte, src.HaloBytes(dir))
		src.Pack(buf, dir)
		neg := part.Dim3{X: -dir.X, Y: -dir.Y, Z: -dir.Z}
		dst.Unpack(buf, neg)
		// Re-pack dst's halo by packing a fresh buffer from src and compare.
		buf2 := make([]byte, len(buf))
		src.Pack(buf2, dir)
		for i := range buf {
			if buf[i] != buf2[i] {
				return false
			}
		}
		// Every byte of the unpacked halo equals the packed stream.
		reg := dst.RecvRegion(neg)
		pos := 0
		ok := true
		for qi := 0; qi < q; qi++ {
			for z := reg.Lo.Z; z < reg.Hi.Z && ok; z++ {
				for y := reg.Lo.Y; y < reg.Hi.Y && ok; y++ {
					for x := reg.Lo.X; x < reg.Hi.X; x++ {
						cell := dst.At(qi, x, y, z)
						for b := 0; b < 4; b++ {
							if cell[b] != buf[pos] {
								ok = false
								break
							}
							pos++
						}
						if !ok {
							break
						}
					}
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: total halo bytes over 26 directions equals the shell volume
// decomposition: faces + edges + corners.
func TestHaloBytesDecompositionProperty(t *testing.T) {
	f := func(a, b, c, rr uint8) bool {
		size := part.Dim3{X: int(a%20) + 1, Y: int(b%20) + 1, Z: int(c%20) + 1}
		r := int(rr%3) + 1
		d := NewDomain(size, r, 1, 4, false)
		var total int64
		for _, dir := range part.Directions26() {
			total += d.HaloBytes(dir)
		}
		sx, sy, sz := int64(size.X), int64(size.Y), int64(size.Z)
		R := int64(r)
		faces := 2 * R * (sx*sy + sy*sz + sx*sz)
		edges := 4 * R * R * (sx + sy + sz)
		corners := int64(8) * R * R * R
		return total == (faces+edges+corners)*4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSnapshotRestore: a snapshot taken at one state restores interiors AND
// halos byte-exactly after both were overwritten.
func TestSnapshotRestore(t *testing.T) {
	d := NewDomain(part.Dim3{X: 6, Y: 5, Z: 4}, 1, 2, 4, true)
	for q := 0; q < 2; q++ {
		fill(d, q, func(x, y, z int) uint32 { return enc(x, y, z) + uint32(q)<<24 })
	}
	snap := d.Snapshot(nil)
	// Corrupt everything, including the halo ring.
	for q := 0; q < 2; q++ {
		fill(d, q, func(x, y, z int) uint32 { return 0xdeadbeef })
	}
	d.Restore(snap)
	for q := 0; q < 2; q++ {
		r := d.Radius
		for z := -r; z < d.Size.Z+r; z++ {
			for y := -r; y < d.Size.Y+r; y++ {
				for x := -r; x < d.Size.X+r; x++ {
					if got, want := read(d, q, x, y, z), enc(x, y, z)+uint32(q)<<24; got != want {
						t.Fatalf("q%d (%d,%d,%d): got %#x want %#x", q, x, y, z, got, want)
					}
				}
			}
		}
	}
}

// TestSnapshotReuse: passing the previous snapshot back in reuses its
// backing storage instead of reallocating.
func TestSnapshotReuse(t *testing.T) {
	d := NewDomain(part.Dim3{X: 4, Y: 4, Z: 4}, 1, 1, 4, true)
	fill(d, 0, enc)
	s1 := d.Snapshot(nil)
	fill(d, 0, func(x, y, z int) uint32 { return enc(x, y, z) + 1 })
	s2 := d.Snapshot(s1)
	if &s2[0][0] != &s1[0][0] {
		t.Error("Snapshot reallocated despite matching shape")
	}
	d.Restore(s2)
	if got := read(d, 0, 0, 0, 0); got != enc(0, 0, 0)+1 {
		t.Errorf("restored value %#x, want %#x", got, enc(0, 0, 0)+1)
	}
}

// TestSnapshotTimeOnly: without real data both operations are no-ops.
func TestSnapshotTimeOnly(t *testing.T) {
	d := NewDomain(part.Dim3{X: 4, Y: 4, Z: 4}, 1, 1, 4, false)
	if snap := d.Snapshot(nil); snap != nil {
		t.Errorf("time-only Snapshot returned %v, want nil", snap)
	}
	d.Restore(nil) // must not panic
}

// TestRestoreShapeMismatchPanics: restoring a wrong-shaped snapshot is a bug.
func TestRestoreShapeMismatchPanics(t *testing.T) {
	d := NewDomain(part.Dim3{X: 4, Y: 4, Z: 4}, 1, 2, 4, true)
	defer func() {
		if recover() == nil {
			t.Error("Restore accepted a wrong-shaped snapshot")
		}
	}()
	d.Restore([][]byte{{1, 2, 3}})
}
