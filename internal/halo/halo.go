// Package halo implements subdomain storage and halo-region geometry: the 26
// direction vectors' send/receive regions, packing of non-contiguous 3D
// regions into dense buffers (paper Fig 6), unpacking, and self-exchange.
//
// A Domain stores one or more quantities over an interior of Size cells plus
// a halo shell of width Radius, in XYZ storage order (x contiguous). Packing
// walks the region row by row, copying contiguous x-runs, exactly as the
// CUDA pack kernel does. Domains optionally carry real backing bytes; in
// time-only mode all geometry and byte counting still work but no data
// moves.
package halo

import (
	"fmt"
	"sync"

	"github.com/nodeaware/stencil/internal/checksum"
	"github.com/nodeaware/stencil/internal/part"
)

// Region is a half-open box [Lo, Hi) in local domain coordinates, where the
// interior spans [0, Size) and the halo extends Radius cells beyond.
type Region struct {
	Lo, Hi part.Dim3
}

// Cells returns the number of grid points in the region.
func (r Region) Cells() int {
	return (r.Hi.X - r.Lo.X) * (r.Hi.Y - r.Lo.Y) * (r.Hi.Z - r.Lo.Z)
}

// Domain is one subdomain's storage.
type Domain struct {
	Size       part.Dim3 // interior extent
	Radius     int
	Quantities int
	ElemSize   int // bytes per grid value (4 for single precision)

	stride part.Dim3 // allocated extents including halo
	data   [][]byte  // one allocation per quantity; nil in time-only mode
}

// NewDomain allocates a subdomain. If real is false the domain is time-only:
// geometry and sizes work but no bytes are stored.
func NewDomain(size part.Dim3, radius, quantities, elemSize int, real bool) *Domain {
	if size.X < 1 || size.Y < 1 || size.Z < 1 {
		panic(fmt.Sprintf("halo: empty domain %v", size))
	}
	if radius < 0 || quantities < 1 || elemSize < 1 {
		panic(fmt.Sprintf("halo: bad params r=%d q=%d e=%d", radius, quantities, elemSize))
	}
	d := &Domain{
		Size:       size,
		Radius:     radius,
		Quantities: quantities,
		ElemSize:   elemSize,
		stride:     part.Dim3{X: size.X + 2*radius, Y: size.Y + 2*radius, Z: size.Z + 2*radius},
	}
	if real {
		d.Alloc()
	}
	return d
}

// Alloc gives a time-only domain its zeroed backing store, one allocation
// per quantity.
func (d *Domain) Alloc() {
	n := d.stride.Vol() * d.ElemSize
	d.data = make([][]byte, d.Quantities)
	for q := range d.data {
		d.data[q] = make([]byte, n)
	}
}

// Real reports whether the domain carries backing bytes.
func (d *Domain) Real() bool { return d.data != nil }

// AllocBytes returns the total allocation size of the domain including halo,
// across all quantities.
func (d *Domain) AllocBytes() int64 {
	return int64(d.stride.Vol()) * int64(d.ElemSize) * int64(d.Quantities)
}

// offset returns the byte offset of cell (x,y,z) — local coordinates, halo
// at negative and >= Size indices — within one quantity's allocation.
func (d *Domain) offset(x, y, z int) int {
	r := d.Radius
	return (((z+r)*d.stride.Y+(y+r))*d.stride.X + (x + r)) * d.ElemSize
}

// checkCoord panics if the coordinate is outside the allocated shell.
func (d *Domain) checkCoord(x, y, z int) {
	r := d.Radius
	if x < -r || x >= d.Size.X+r || y < -r || y >= d.Size.Y+r || z < -r || z >= d.Size.Z+r {
		panic(fmt.Sprintf("halo: coordinate (%d,%d,%d) outside domain %v radius %d", x, y, z, d.Size, r))
	}
}

// At returns the elem bytes of cell (x,y,z) of quantity q as a slice into
// the backing store. Panics in time-only mode or out of range.
func (d *Domain) At(q, x, y, z int) []byte {
	d.checkCoord(x, y, z)
	off := d.offset(x, y, z)
	return d.data[q][off : off+d.ElemSize]
}

// Row returns cells [x0, x1) of row (y, z) of quantity q as one slice into
// the backing store, ElemSize bytes per cell: At for a whole x-run, bounds
// checked once. Panics in time-only mode or out of range.
func (d *Domain) Row(q, x0, x1, y, z int) []byte {
	if x0 > x1 || x1 > d.Size.X+d.Radius {
		panic(fmt.Sprintf("halo: row [%d,%d) outside domain %v radius %d", x0, x1, d.Size, d.Radius))
	}
	d.checkCoord(x0, y, z)
	return d.data[q][d.offset(x0, y, z):d.offset(x1, y, z)]
}

// SendRegion returns the interior strip that must be sent to the neighbor in
// direction dir: Radius cells deep along each nonzero direction component,
// the full interior along zero components.
func (d *Domain) SendRegion(dir part.Dim3) Region {
	return d.regionFor(dir, false)
}

// RecvRegion returns the exterior halo shell filled by the neighbor in
// direction dir.
func (d *Domain) RecvRegion(dir part.Dim3) Region {
	return d.regionFor(dir, true)
}

func (d *Domain) regionFor(dir part.Dim3, exterior bool) Region {
	r := d.Radius
	lo := [3]int{}
	hi := [3]int{}
	size := [3]int{d.Size.X, d.Size.Y, d.Size.Z}
	dv := [3]int{dir.X, dir.Y, dir.Z}
	for a := 0; a < 3; a++ {
		switch dv[a] {
		case 0:
			lo[a], hi[a] = 0, size[a]
		case 1:
			if exterior {
				lo[a], hi[a] = size[a], size[a]+r
			} else {
				lo[a], hi[a] = size[a]-r, size[a]
			}
		case -1:
			if exterior {
				lo[a], hi[a] = -r, 0
			} else {
				lo[a], hi[a] = 0, r
			}
		default:
			panic(fmt.Sprintf("halo: direction component %d", dv[a]))
		}
	}
	return Region{
		Lo: part.Dim3{X: lo[0], Y: lo[1], Z: lo[2]},
		Hi: part.Dim3{X: hi[0], Y: hi[1], Z: hi[2]},
	}
}

// HaloBytes returns the message size for an exchange in direction dir: the
// region cells times element size times quantity count.
func (d *Domain) HaloBytes(dir part.Dim3) int64 {
	return int64(d.SendRegion(dir).Cells()) * int64(d.ElemSize) * int64(d.Quantities)
}

// rows is a region's layout in one byte array, the walk every row kernel
// shares: nz planes of ny contiguous x-runs of n bytes each, in Pack order
// (z-major, then y). The first run starts at off; runs within a plane are
// yStep bytes apart, and the first runs of consecutive planes zStep apart.
type rows struct {
	off, n, ny, nz int
	yStep, zStep   int
}

// rows returns reg's layout in one quantity's allocation.
func (d *Domain) rows(reg Region) rows {
	yStep := d.stride.X * d.ElemSize
	return rows{
		off:   d.offset(reg.Lo.X, reg.Lo.Y, reg.Lo.Z),
		n:     (reg.Hi.X - reg.Lo.X) * d.ElemSize,
		ny:    reg.Hi.Y - reg.Lo.Y,
		nz:    reg.Hi.Z - reg.Lo.Z,
		yStep: yStep,
		zStep: yStep * d.stride.Y,
	}
}

// dense returns the layout of r's runs packed back to back from off: the
// message buffer side of Pack and Unpack.
func (r rows) dense(off int) rows {
	return rows{off: off, n: r.n, ny: r.ny, nz: r.nz, yStep: r.n, zStep: r.n * r.ny}
}

// bytes returns the region's total size in one quantity.
func (r rows) bytes() int { return r.n * r.ny * r.nz }

// copyRows copies the runs of s in src, in order, onto the runs of d in dst.
// Both layouts have the same run length and count. ±X faces of radius-2
// single-precision domains have 8-byte runs, so those move as one word each
// instead of through a copy call per run.
func copyRows(dst []byte, d rows, src []byte, s rows) {
	n := s.n
	for z := 0; z < s.nz; z++ {
		do, so := d.off+z*d.zStep, s.off+z*s.zStep
		if n == 8 {
			for y := 0; y < s.ny; y++ {
				*(*[8]byte)(dst[do : do+8]) = *(*[8]byte)(src[so : so+8])
				do += d.yStep
				so += s.yStep
			}
			continue
		}
		for y := 0; y < s.ny; y++ {
			copy(dst[do:do+n], src[so:so+n])
			do += d.yStep
			so += s.yStep
		}
	}
}

// Pack copies the send region for dir, all quantities, into dst (the dense
// buffer layout of Fig 6: quantity-major, then z, y, x). It returns the
// number of bytes packed. In time-only mode (or with nil dst) it returns the
// byte count without copying.
func (d *Domain) Pack(dst []byte, dir part.Dim3) int64 {
	reg := d.SendRegion(dir)
	total := d.HaloBytes(dir)
	if d.data == nil || dst == nil {
		return total
	}
	if int64(len(dst)) < total {
		panic(fmt.Sprintf("halo: pack buffer %d < message %d", len(dst), total))
	}
	d.pack(dst, d.rows(reg))
	return total
}

// pack writes the runs of r, quantity after quantity, back to back into dst.
func (d *Domain) pack(dst []byte, r rows) {
	for q, src := range d.data {
		copyRows(dst, r.dense(q*r.bytes()), src, r)
	}
}

// Unpack copies a dense buffer produced by the neighbor's Pack into the
// receive halo for dir. Buffer layout must match Pack's.
func (d *Domain) Unpack(src []byte, dir part.Dim3) int64 {
	reg := d.RecvRegion(dir)
	total := int64(reg.Cells()) * int64(d.ElemSize) * int64(d.Quantities)
	if d.data == nil || src == nil {
		return total
	}
	if int64(len(src)) < total {
		panic(fmt.Sprintf("halo: unpack buffer %d < message %d", len(src), total))
	}
	r := d.rows(reg)
	for q, dst := range d.data {
		copyRows(dst, r, src, r.dense(q*r.bytes()))
	}
	return total
}

// SelfExchange fills the receive halo in direction dir from this domain's
// own interior, implementing the KERNEL method's periodic wrap: the halo in
// direction dir receives the send region of direction -dir.
func (d *Domain) SelfExchange(dir part.Dim3) int64 {
	neg := part.Dim3{X: -dir.X, Y: -dir.Y, Z: -dir.Z}
	src := d.SendRegion(neg)
	dst := d.RecvRegion(dir)
	total := int64(dst.Cells()) * int64(d.ElemSize) * int64(d.Quantities)
	if d.data == nil {
		return total
	}
	if src.Cells() != dst.Cells() {
		panic("halo: self-exchange region mismatch")
	}
	// Both regions have identical per-axis extents, so their runs pair up
	// in order.
	sr, dr := d.rows(src), d.rows(dst)
	for _, buf := range d.data {
		copyRows(buf, dr, buf, sr)
	}
	return total
}

// RegionChecksum returns checksum.Sum64 of the region's bytes as Pack
// serializes them: all quantities, runs in region order. A send region and
// the matching receive region on the neighbor hash equal exactly when the
// transfer landed intact, which is what the exchange layer's end-to-end halo
// verification compares. Time-only domains return 0.
func (d *Domain) RegionChecksum(reg Region) uint64 {
	if d.data == nil {
		return 0
	}
	// Gathering the runs first and hashing once keeps the hash on whole
	// 32-byte stripes; hashing 8-byte runs one by one costs more than the
	// gather. Independent engines may verify at the same time, hence a
	// pool rather than one buffer.
	r := d.rows(reg)
	size := r.bytes() * len(d.data)
	sc := scratchPool.Get().(*[]byte)
	if cap(*sc) < size {
		*sc = make([]byte, size)
	}
	buf := (*sc)[:size]
	d.pack(buf, r)
	sum := checksum.Sum64(buf)
	scratchPool.Put(sc)
	return sum
}

// scratchPool holds RegionChecksum's gather buffers.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// Fingerprint returns checksum.Sum64 over the domain's interior extent
// followed by its complete backing store (all quantities, interior and
// halo). Two domains that went through byte-identical histories hash equal;
// the determinism regression test compares sequential and parallel runs with
// it. Time-only domains hash their geometry alone.
func (d *Domain) Fingerprint() uint64 {
	var h checksum.Digest
	var dims [6]byte
	for i, v := range []int{d.Size.X, d.Size.Y, d.Size.Z} {
		dims[2*i] = byte(v)
		dims[2*i+1] = byte(v >> 8)
	}
	h.Write(dims[:])
	for _, q := range d.data {
		h.Write(q)
	}
	return h.Sum64()
}

// Snapshot deep-copies the domain's complete backing store (all quantities,
// interior and halo) into dst, reusing dst's allocations when the shapes
// match, and returns the snapshot. Time-only domains return nil. The
// exchange layer's checkpoint scheduler calls this at the virtual completion
// time of the checkpoint's D2H copy, so the snapshot captures exactly the
// state the copy would have carried.
func (d *Domain) Snapshot(dst [][]byte) [][]byte {
	if d.data == nil {
		return nil
	}
	if len(dst) != len(d.data) {
		dst = make([][]byte, len(d.data))
	}
	for q, src := range d.data {
		if len(dst[q]) != len(src) {
			dst[q] = make([]byte, len(src))
		}
		copy(dst[q], src)
	}
	return dst
}

// Restore overwrites the backing store from a Snapshot result — interior
// and halo both, so any corruption from a rolled-back iteration is wiped.
// Time-only domains ignore the (nil) snapshot; a shape mismatch panics.
func (d *Domain) Restore(snap [][]byte) {
	if d.data == nil {
		if snap != nil {
			panic("halo: Restore of a real snapshot into a time-only domain")
		}
		return
	}
	if len(snap) != len(d.data) {
		panic(fmt.Sprintf("halo: Restore quantity mismatch: snapshot %d, domain %d", len(snap), len(d.data)))
	}
	for q, src := range snap {
		if len(src) != len(d.data[q]) {
			panic(fmt.Sprintf("halo: Restore size mismatch on quantity %d: snapshot %d, domain %d", q, len(src), len(d.data[q])))
		}
		copy(d.data[q], src)
	}
}

// MaxHaloBytes returns the largest single-direction message size across the
// given directions; the exchange layer sizes its staging buffers with this.
func (d *Domain) MaxHaloBytes(dirs []part.Dim3) int64 {
	var maxB int64
	for _, dir := range dirs {
		if b := d.HaloBytes(dir); b > maxB {
			maxB = b
		}
	}
	return maxB
}

// ExchangeVolume returns the bytes exchanged between two adjacent subdomains
// of the given sizes in direction dir (from a's perspective): it is a's send
// region size, which must equal b's receive region size along the shared
// face, edge, or corner. Used to build the placement flow matrix (Fig 5).
func ExchangeVolume(a part.Dim3, dir part.Dim3, radius, quantities, elemSize int) int64 {
	return int64(part.HaloCells(a, dir, radius)) * int64(quantities) * int64(elemSize)
}
