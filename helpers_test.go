package stencil

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func fillPattern(q, x, y, z int) float32 {
	return float32(q*1_000_000 + z*10_000 + y*100 + x)
}

func TestFillAndVerifyHalos(t *testing.T) {
	dd, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dd.Fill(fillPattern)
	dd.Exchange(1)
	if bad, detail := dd.VerifyHalos(fillPattern); bad != 0 {
		t.Errorf("%d bad halo cells: %s", bad, detail)
	}
}

func TestVerifyHalosDetectsCorruption(t *testing.T) {
	dd, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dd.Fill(fillPattern)
	dd.Exchange(1)
	// Corrupt one halo cell: VerifyHalos must notice.
	s := dd.Subdomains()[0]
	s.Set(0, -1, 0, 0, -12345)
	bad, detail := dd.VerifyHalos(fillPattern)
	if bad == 0 {
		t.Fatal("corruption not detected")
	}
	if !strings.Contains(detail, "got -12345") {
		t.Errorf("detail missing corrupted value: %s", detail)
	}
}

func TestFillVerifyOpenBoundary(t *testing.T) {
	cfg := smallConfig()
	cfg.OpenBoundary = true
	dd, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dd.Fill(fillPattern)
	dd.Exchange(1)
	if bad, detail := dd.VerifyHalos(fillPattern); bad != 0 {
		t.Errorf("open-boundary verification failed: %d bad (%s)", bad, detail)
	}
}

func TestForEachInterior(t *testing.T) {
	dd, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := dd.Subdomains()[0]
	count := 0
	s.ForEachInterior(func(x, y, z int) { count++ })
	if count != s.Size.Vol() {
		t.Errorf("visited %d cells, want %d", count, s.Size.Vol())
	}
}

func TestTrafficPublicAPI(t *testing.T) {
	dd, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := dd.Traffic()
	if r.Total() <= 0 {
		t.Fatal("no traffic accounted")
	}
	if r.Bytes[TrafficNIC] != 0 {
		t.Error("single-node config reports NIC traffic")
	}
	if r.Bytes[TrafficNVLink] <= 0 {
		t.Error("no NVLink traffic in fully specialized single-node config")
	}
}

// fillReference is Fill's former per-cell walk: one Set per interior cell.
func fillReference(dd *DistributedDomain, f FillFunc) {
	for _, s := range dd.subs {
		for q := 0; q < dd.cfg.Quantities; q++ {
			for z := 0; z < s.Size.Z; z++ {
				for y := 0; y < s.Size.Y; y++ {
					for x := 0; x < s.Size.X; x++ {
						s.Set(q, x, y, z, f(q, s.Origin.X+x, s.Origin.Y+y, s.Origin.Z+z))
					}
				}
			}
		}
	}
}

// verifyHalosReference is VerifyHalos' former walk: the whole shell box,
// skipping interior cells one by one.
func verifyHalosReference(dd *DistributedDomain, f FillFunc) (bad int, detail string) {
	d := dd.cfg.Domain
	wrap := func(v, n int) int { return ((v % n) + n) % n }
	for _, s := range dd.subs {
		r := dd.cfg.Radius
		for q := 0; q < dd.cfg.Quantities; q++ {
			for z := -r; z < s.Size.Z+r; z++ {
				for y := -r; y < s.Size.Y+r; y++ {
					for x := -r; x < s.Size.X+r; x++ {
						interior := x >= 0 && x < s.Size.X && y >= 0 && y < s.Size.Y && z >= 0 && z < s.Size.Z
						if interior {
							continue
						}
						gx, gy, gz := s.Origin.X+x, s.Origin.Y+y, s.Origin.Z+z
						if dd.cfg.OpenBoundary {
							if gx < 0 || gx >= d.X || gy < 0 || gy >= d.Y || gz < 0 || gz >= d.Z {
								continue
							}
						} else {
							gx, gy, gz = wrap(gx, d.X), wrap(gy, d.Y), wrap(gz, d.Z)
						}
						want := f(q, gx, gy, gz)
						got := s.Get(q, x, y, z)
						if got != want {
							bad++
							if bad <= 3 {
								detail += fmt.Sprintf("sub %v q%d halo (%d,%d,%d): got %g want %g; ",
									s.GlobalIndex(), q, x, y, z, got, want)
							}
						}
					}
				}
			}
		}
	}
	return bad, detail
}

// TestFillMatchesPerCellSet: the row walk leaves every subdomain
// byte-identical to one Set per cell, for 4- and 8-byte cells and radius
// 1-3, and writes no halo byte.
func TestFillMatchesPerCellSet(t *testing.T) {
	for _, es := range []int{4, 8} {
		for r := 1; r <= 3; r++ {
			cfg := smallConfig()
			cfg.ElemSize, cfg.Radius, cfg.Quantities = es, r, 2
			got, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got.Fill(fillPattern)
			fillReference(want, fillPattern)
			for i, s := range got.subs {
				if g, w := s.sub.Dom.Fingerprint(), want.subs[i].sub.Dom.Fingerprint(); g != w {
					t.Errorf("elem %d radius %d: sub %v differs from per-cell Set", es, r, s.GlobalIndex())
				}
				dom := s.sub.Dom
				for q := 0; q < cfg.Quantities; q++ {
					for z := -r; z < s.Size.Z+r; z++ {
						for y := -r; y < s.Size.Y+r; y++ {
							for x := -r; x < s.Size.X+r; x++ {
								if x >= 0 && x < s.Size.X && y >= 0 && y < s.Size.Y && z >= 0 && z < s.Size.Z {
									continue
								}
								for _, b := range dom.At(q, x, y, z) {
									if b != 0 {
										t.Fatalf("elem %d radius %d: sub %v halo (%d,%d,%d) written by Fill",
											es, r, s.GlobalIndex(), x, y, z)
									}
								}
							}
						}
					}
				}
			}
			got.Exchange(1)
			if bad, detail := got.VerifyHalos(fillPattern); bad != 0 {
				t.Errorf("elem %d radius %d: %d bad halo cells: %s", es, r, bad, detail)
			}
		}
	}
}

// TestVerifyHalosMatchesShellWalk: the halo-only walk reports the same
// count and detail as the whole-shell walk, under periodic and open
// boundaries, with corrupted face, edge and corner halo cells and one
// corrupted interior cell that must not count.
func TestVerifyHalosMatchesShellWalk(t *testing.T) {
	for _, open := range []bool{false, true} {
		for r := 1; r <= 2; r++ {
			cfg := smallConfig()
			cfg.OpenBoundary, cfg.Radius, cfg.Quantities = open, r, 2
			dd, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dd.Fill(fillPattern)
			dd.Exchange(1)
			corrupted := 0
			for i, s := range dd.subs {
				sx, sy, sz := s.Size.X, s.Size.Y, s.Size.Z
				q := i % cfg.Quantities
				for _, c := range [][3]int{
					{-1, sy / 2, sz / 2},         // -X face
					{sx + r - 1, 0, sz - 1},      // +X face
					{sx / 2, -r, sz},             // -Y/+Z edge
					{-r, sy + r - 1, sz / 2},     // -X/+Y edge
					{-1, -1, -1},                 // corner
					{sx + r - 1, sy, sz + r - 1}, // corner
				} {
					s.Set(q, c[0], c[1], c[2], -7)
					corrupted++
				}
				s.Set(q, sx/2, sy/2, sz/2, -7) // interior: not a halo cell
			}
			bad, detail := dd.VerifyHalos(fillPattern)
			wantBad, wantDetail := verifyHalosReference(dd, fillPattern)
			if bad != wantBad || detail != wantDetail {
				t.Errorf("open=%v radius %d: got (%d, %q), shell walk (%d, %q)",
					open, r, bad, detail, wantBad, wantDetail)
			}
			if !open && bad != corrupted {
				t.Errorf("periodic radius %d: %d bad, want the %d corrupted halo cells", r, bad, corrupted)
			}
			if open && (bad == 0 || bad >= corrupted) {
				t.Errorf("open radius %d: %d bad of %d corrupted; want some skipped outside the domain, some counted",
					r, bad, corrupted)
			}
		}
	}
}

// TestRealDataAccessorsNeedRealData: on a time-only domain Fill and
// VerifyHalos name the missing option instead of indexing empty storage.
func TestRealDataAccessorsNeedRealData(t *testing.T) {
	cfg := smallConfig()
	cfg.RealData = false
	dd, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func(){
		"Fill":        func() { dd.Fill(fillPattern) },
		"VerifyHalos": func() { dd.VerifyHalos(fillPattern) },
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "Config.RealData") {
					t.Errorf("%s on a time-only domain: panic %q does not name Config.RealData", name, msg)
				}
			}()
			call()
		}()
	}
}

// TestParallelRealDataSetup: New and Fill split real-data set-up by
// subdomain over GOMAXPROCS goroutines. At GOMAXPROCS 1 and 4 on a 2-node
// real-data job every subdomain's bytes are the same, f sees each interior
// (q, x, y, z) exactly once, the halos verify after one Step, and a FillFunc
// panic surfaces on the caller's goroutine with its own value.
func TestParallelRealDataSetup(t *testing.T) {
	cfg := Config{
		Nodes: 2, RanksPerNode: 2, Domain: Dim3{X: 36, Y: 24, Z: 24}, Radius: 2, Quantities: 2,
		Capabilities: CapsAll(), RealData: true,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []uint64
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		dd, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		calls := make(map[[4]int]int)
		dd.Fill(func(q, x, y, z int) float32 {
			mu.Lock()
			calls[[4]int{q, x, y, z}]++
			mu.Unlock()
			return fillPattern(q, x, y, z)
		})
		if n := cfg.Quantities * cfg.Domain.Vol(); len(calls) != n {
			t.Errorf("GOMAXPROCS %d: f saw %d distinct cells, want %d", procs, len(calls), n)
		}
		for c, k := range calls {
			if k != 1 {
				t.Fatalf("GOMAXPROCS %d: f called %d times for (q, x, y, z) = %v", procs, k, c)
			}
		}
		var got []uint64
		for _, s := range dd.subs {
			got = append(got, s.sub.Dom.Fingerprint())
		}
		if want == nil {
			want = got
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("GOMAXPROCS %d: sub %v fingerprint %x, GOMAXPROCS 1 read %x",
						procs, dd.subs[i].GlobalIndex(), got[i], want[i])
				}
			}
		}
		dd.Step(1, func(*Subdomain) {})
		if bad, detail := dd.VerifyHalos(fillPattern); bad != 0 {
			t.Errorf("GOMAXPROCS %d: %d bad halo cells: %s", procs, bad, detail)
		}

		last := dd.subs[len(dd.subs)-1]
		boom := [4]int{1, last.Origin.X, last.Origin.Y + 1, last.Origin.Z}
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("GOMAXPROCS %d: Fill re-raised %v, want the FillFunc's panic", procs, r)
				}
			}()
			dd.Fill(func(q, x, y, z int) float32 {
				if [4]int{q, x, y, z} == boom {
					panic("boom")
				}
				return fillPattern(q, x, y, z)
			})
		}()
	}
}

// Benchmarks at realdata-verify's shape: 2 nodes, 2 ranks per node, 6 GPUs
// per node, a 192^3 domain, 4 quantities, radius 2.
func realdataBenchConfig() Config {
	return Config{
		Nodes: 2, RanksPerNode: 2, Domain: Dim3{X: 192, Y: 192, Z: 192}, Radius: 2, Quantities: 4,
		Capabilities: CapsAll(), RealData: true,
	}
}

func benchFill(q, x, y, z int) float32 {
	return float32((q*1000003 + z*9973 + y*97 + x) % (1 << 24))
}

func BenchmarkFill(b *testing.B) {
	dd, err := New(realdataBenchConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dd.Fill(benchFill)
	}
}

// BenchmarkRealDataSetup times both halves of realdata-verify's setup_s:
// New (which allocates the subdomains' backing stores) and Fill.
func BenchmarkRealDataSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dd, err := New(realdataBenchConfig())
		if err != nil {
			b.Fatal(err)
		}
		dd.Fill(benchFill)
	}
}

func BenchmarkVerifyHalos(b *testing.B) {
	dd, err := New(realdataBenchConfig())
	if err != nil {
		b.Fatal(err)
	}
	dd.Fill(benchFill)
	dd.Exchange(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bad, detail := dd.VerifyHalos(benchFill); bad != 0 {
			b.Fatalf("%d bad halo cells: %s", bad, detail)
		}
	}
}
