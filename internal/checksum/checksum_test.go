package checksum

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// kib is the fixed 1 KiB input whose checksum is pinned below.
func kib() []byte {
	b := make([]byte, 1024)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

const kibSum uint64 = 0xe6816a6e134b7a33

// Published xxHash64 values (seed 0). Together they take every path: the
// empty input, 1- to 4-byte tails, and four lanes plus 8-, 4- and 1-byte
// tails (the 63-byte string).
func TestSum64Published(t *testing.T) {
	for _, c := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"as", 0x1c330fb2d66be179},
		{"asd", 0x631c37ce72a97393},
		{"asdf", 0x415872f599cea71e},
		{"abc", 0x44bc2cf5ad770999},
		{"Call me Ishmael. Some years ago--never mind how long precisely-", 0x02a2e85470d6fd96},
	} {
		if got := Sum64([]byte(c.in)); got != c.want {
			t.Errorf("Sum64(%q) = %#x, want %#x", c.in, got, c.want)
		}
		var d Digest
		d.Write([]byte(c.in))
		if got := d.Sum64(); got != c.want {
			t.Errorf("Digest(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestSum64Pinned(t *testing.T) {
	b := kib()
	if got := Sum64(b); got != kibSum {
		t.Fatalf("Sum64(1 KiB) = %#x, want %#x", got, kibSum)
	}
	for _, split := range []int{1, 3, 8, 31, 32, 33, len(b)} {
		var d Digest
		for rest := b; len(rest) > 0; {
			n := min(split, len(rest))
			d.Write(rest[:n])
			rest = rest[n:]
		}
		if got := d.Sum64(); got != kibSum {
			t.Errorf("Digest in %d-byte writes = %#x, want %#x", split, got, kibSum)
		}
	}
}

// corrupt flips bytes exactly as the MPI envelope's corruptPayload does:
// 1 + key%7 flips with nonzero XOR masks at key-derived positions.
func corrupt(region []byte, key uint64) {
	flips := 1 + int(key%7)
	for i := 0; i < flips; i++ {
		pos := (key>>8 + uint64(i)*2654435761) % uint64(len(region))
		region[pos] ^= byte(0x5A + 31*i)
	}
}

// Property: every corruption the envelope can inject changes the checksum,
// so a corrupt delivery is always detected.
func TestCorruptionDetected(t *testing.T) {
	f := func(seed int64, key uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 1+rng.Intn(2048))
		rng.Read(b)
		before := Sum64(b)
		corrupt(b, key)
		return Sum64(b) != before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}
