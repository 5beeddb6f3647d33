package stencil

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/nodeaware/stencil/internal/exchange"
)

// This file holds application-side conveniences: bulk initialization,
// iteration, halo verification, and traffic analysis. They are the pieces
// every example and test was otherwise re-implementing.

// FillFunc produces the initial value of quantity q at global coordinate
// (x, y, z). Fill may call it from several goroutines at once, so it must be
// safe for concurrent use; a pure function of its arguments is.
type FillFunc func(q, x, y, z int) float32

// Fill initializes every interior cell of every subdomain from f, calling f
// exactly once per interior cell. Subdomains are filled in parallel, one per
// goroutine on up to GOMAXPROCS goroutines, and the bytes are the same at
// any GOMAXPROCS; a panic in f is re-raised on the calling goroutine. Each
// interior x-run is written through one row slice, one float32 per cell (the
// first 4 bytes of each ElemSize-byte cell, as Subdomain.Set writes it).
// Requires Config.RealData.
func (dd *DistributedDomain) Fill(f FillFunc) {
	dd.requireRealData("Fill")
	dd.ex.ForEachSub(func(i int) { dd.subs[i].fill(f) })
}

// fill writes f over the subdomain's interior cells, quantity by quantity.
func (s *Subdomain) fill(f FillFunc) {
	es := s.dd.cfg.ElemSize
	dom := s.sub.Dom
	for q := 0; q < s.dd.cfg.Quantities; q++ {
		for z := 0; z < s.Size.Z; z++ {
			gz := s.Origin.Z + z
			for y := 0; y < s.Size.Y; y++ {
				gy := s.Origin.Y + y
				row := dom.Row(q, 0, s.Size.X, y, z)
				for x, off := 0, 0; x < s.Size.X; x, off = x+1, off+es {
					binary.LittleEndian.PutUint32(row[off:], math.Float32bits(f(q, s.Origin.X+x, gy, gz)))
				}
			}
		}
	}
}

// requireRealData panics unless the domain carries real bytes: op reads or
// writes cell values, which time-only domains do not store.
func (dd *DistributedDomain) requireRealData(op string) {
	if !dd.cfg.RealData {
		panic(fmt.Sprintf("stencil: %s requires Config.RealData", op))
	}
}

// ForEachInterior invokes fn for every interior cell of the subdomain, in
// z-major order.
func (s *Subdomain) ForEachInterior(fn func(x, y, z int)) {
	for z := 0; z < s.Size.Z; z++ {
		for y := 0; y < s.Size.Y; y++ {
			for x := 0; x < s.Size.X; x++ {
				fn(x, y, z)
			}
		}
	}
}

// VerifyHalos checks every halo cell of every subdomain against f (the same
// function passed to Fill), honoring the configured boundary conditions:
// under periodic boundaries coordinates wrap; under open boundaries halo
// cells outside the domain are skipped. It returns the number of mismatched
// cells and a description of the first few. Only halo cells are visited,
// row by row: whole shell rows where y or z lies outside the interior, and
// otherwise the Radius cells at each x end. Requires Config.RealData.
func (dd *DistributedDomain) VerifyHalos(f FillFunc) (bad int, detail string) {
	dd.requireRealData("VerifyHalos")
	d := dd.cfg.Domain
	r, es := dd.cfg.Radius, dd.cfg.ElemSize
	wrap := func(v, n int) int { return ((v % n) + n) % n }
	for _, s := range dd.subs {
		dom := s.sub.Dom
		// check compares cells [x0, x1) of halo row (y, z) against f.
		check := func(q, x0, x1, y, z int) {
			gy, gz := s.Origin.Y+y, s.Origin.Z+z
			if dd.cfg.OpenBoundary {
				if gy < 0 || gy >= d.Y || gz < 0 || gz >= d.Z {
					return
				}
			} else {
				gy, gz = wrap(gy, d.Y), wrap(gz, d.Z)
			}
			row := dom.Row(q, x0, x1, y, z)
			for x, off := x0, 0; x < x1; x, off = x+1, off+es {
				gx := s.Origin.X + x
				if dd.cfg.OpenBoundary {
					if gx < 0 || gx >= d.X {
						continue
					}
				} else {
					gx = wrap(gx, d.X)
				}
				want := f(q, gx, gy, gz)
				got := math.Float32frombits(binary.LittleEndian.Uint32(row[off:]))
				if got != want {
					bad++
					if bad <= 3 {
						detail += fmt.Sprintf("sub %v q%d halo (%d,%d,%d): got %g want %g; ",
							s.GlobalIndex(), q, x, y, z, got, want)
					}
				}
			}
		}
		for q := 0; q < dd.cfg.Quantities; q++ {
			for z := -r; z < s.Size.Z+r; z++ {
				for y := -r; y < s.Size.Y+r; y++ {
					if y < 0 || y >= s.Size.Y || z < 0 || z >= s.Size.Z {
						check(q, -r, s.Size.X+r, y, z)
						continue
					}
					check(q, -r, 0, y, z)
					check(q, s.Size.X, s.Size.X+r, y, z)
				}
			}
		}
	}
	return bad, detail
}

// TrafficClass identifies which machine facility a transfer plan's bytes
// cross.
type TrafficClass = exchange.LinkClass

// Traffic class constants.
const (
	TrafficSameGPU = exchange.ClassSameGPU
	TrafficNVLink  = exchange.ClassNVLink
	TrafficXBus    = exchange.ClassXBus
	TrafficHost    = exchange.ClassHost
	TrafficNIC     = exchange.ClassNIC
)

// TrafficReport breaks the per-exchange bytes down by machine facility.
type TrafficReport = exchange.TrafficReport

// Traffic returns the per-exchange traffic breakdown by link class.
func (dd *DistributedDomain) Traffic() *TrafficReport {
	return dd.ex.Traffic()
}

// StagingBytes reports the library's buffer overhead: total device and
// pinned-host staging allocation across all transfer plans.
func (dd *DistributedDomain) StagingBytes() (device, host int64) {
	return dd.ex.StagingBytes()
}
