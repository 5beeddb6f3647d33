// Package checksum is the payload checksum of the halo and MPI byte paths:
// xxHash64 with seed 0, which consumes input a 64-bit little-endian word at a
// time and so runs at memory speed on the dense buffers Pack produces. The
// end-to-end halo verification compares a sender's region hash with the
// receiver's, and the reliable-delivery envelope compares a payload's hash
// at send time with the landed bytes, so both sides of each comparison must
// use this one function.
//
// Sum64 hashes a whole buffer; Digest produces the same value from the
// buffer fed in pieces of any size.
package checksum

import (
	"encoding/binary"
	"math/bits"
)

const (
	prime1 uint64 = 0x9e3779b185ebca87
	prime2 uint64 = 0xc2b2ae3d27d4eb4f
	prime3 uint64 = 0x165667b19e3779f9
	prime4 uint64 = 0x85ebca77c2b2ae63
	prime5 uint64 = 0x27d4eb2f165667c5
)

// blockSize is the stripe the four accumulator lanes consume per step.
const blockSize = 32

// seedLanes returns the lanes' initial values for seed 0: prime1+prime2,
// prime2, 0 and -prime1, wrapped to 64 bits.
func seedLanes() [4]uint64 {
	return [4]uint64{0x60ea27eeadc0b5d6, prime2, 0, 0x61c8864e7a143579}
}

func round(acc, input uint64) uint64 {
	acc += input * prime2
	acc = bits.RotateLeft64(acc, 31)
	return acc * prime1
}

func mergeRound(acc, lane uint64) uint64 {
	acc ^= round(0, lane)
	return acc*prime1 + prime4
}

// blocks folds every whole 32-byte stripe of b into the lanes and returns
// the number of bytes consumed.
func blocks(v *[4]uint64, b []byte) int {
	v1, v2, v3, v4 := v[0], v[1], v[2], v[3]
	n := len(b) &^ (blockSize - 1)
	for i := 0; i < n; i += blockSize {
		s := b[i : i+blockSize : i+blockSize]
		v1 = round(v1, binary.LittleEndian.Uint64(s[0:8]))
		v2 = round(v2, binary.LittleEndian.Uint64(s[8:16]))
		v3 = round(v3, binary.LittleEndian.Uint64(s[16:24]))
		v4 = round(v4, binary.LittleEndian.Uint64(s[24:32]))
	}
	v[0], v[1], v[2], v[3] = v1, v2, v3, v4
	return n
}

// finish combines the lanes (used only once total reached a full stripe),
// the total length and the unconsumed tail (shorter than a stripe).
func finish(v *[4]uint64, total uint64, tail []byte) uint64 {
	var h uint64
	if total >= blockSize {
		h = bits.RotateLeft64(v[0], 1) + bits.RotateLeft64(v[1], 7) +
			bits.RotateLeft64(v[2], 12) + bits.RotateLeft64(v[3], 18)
		for _, lane := range v {
			h = mergeRound(h, lane)
		}
	} else {
		h = prime5
	}
	h += total
	for ; len(tail) >= 8; tail = tail[8:] {
		h ^= round(0, binary.LittleEndian.Uint64(tail))
		h = bits.RotateLeft64(h, 27)*prime1 + prime4
	}
	if len(tail) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(tail)) * prime1
		h = bits.RotateLeft64(h, 23)*prime2 + prime3
		tail = tail[4:]
	}
	for _, c := range tail {
		h ^= uint64(c) * prime5
		h = bits.RotateLeft64(h, 11) * prime1
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// Sum64 returns the xxHash64 (seed 0) of b.
func Sum64(b []byte) uint64 {
	v := seedLanes()
	n := blocks(&v, b)
	return finish(&v, uint64(len(b)), b[n:])
}

// Digest computes Sum64 of everything written to it, in as many writes as
// the caller likes. The zero value is ready to use.
type Digest struct {
	v     [4]uint64
	total uint64
	mem   [blockSize]byte // bytes not yet folded into the lanes
	n     int             // valid bytes in mem
}

// Write adds b to the digest. It never fails; the signature matches
// io.Writer.
func (d *Digest) Write(b []byte) (int, error) {
	written := len(b)
	if d.total == 0 {
		d.v = seedLanes()
	}
	d.total += uint64(written)
	if d.n+len(b) < blockSize {
		d.n += copy(d.mem[d.n:], b)
		return written, nil
	}
	if d.n > 0 {
		c := copy(d.mem[d.n:], b)
		blocks(&d.v, d.mem[:])
		b = b[c:]
		d.n = 0
	}
	b = b[blocks(&d.v, b):]
	d.n = copy(d.mem[:], b)
	return written, nil
}

// Sum64 returns the checksum of everything written so far; it does not
// change the digest.
func (d *Digest) Sum64() uint64 {
	v := d.v
	return finish(&v, d.total, d.mem[:d.n])
}
