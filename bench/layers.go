package main

import (
	"fmt"
	"time"

	"github.com/nodeaware/stencil/internal/halo"
	"github.com/nodeaware/stencil/internal/jobspec"
	"github.com/nodeaware/stencil/internal/part"
)

// timing is one public function measured on its own: nanoseconds per call
// as the best of five rounds, the spread (worst - best) / best of those
// rounds, and heap allocations per call.
type timing struct {
	Name        string  `json:"name"`
	BestNs      float64 `json:"best_ns_per_op"`
	Spread      float64 `json:"spread"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// measure times fn in five rounds of equal length; a round repeats fn until
// it lasts at least 10 ms, so short calls are not lost in timer resolution.
func measure(name string, fn func()) timing {
	reps := 1
	for {
		t := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if time.Since(t) >= 10*time.Millisecond || reps >= 1<<20 {
			break
		}
		reps *= 2
	}
	var best, worst time.Duration
	before := readRuntime()
	for r := 0; r < 5; r++ {
		t := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		d := time.Since(t)
		if r == 0 || d < best {
			best = d
		}
		worst = max(worst, d)
	}
	after := readRuntime()
	return timing{
		Name:        name,
		BestNs:      float64(best.Nanoseconds()) / float64(reps),
		Spread:      float64(worst-best) / float64(best),
		AllocsPerOp: float64(after.mallocs-before.mallocs) / float64(5*reps),
	}
}

// layerInputs are what one workload's public-function timings run on.
type layerInputs struct {
	haloSize part.Dim3 // subdomain whose 26 halos are packed
	domain   part.Dim3 // decomposed by part.NewHier
	nodes    int
	specs    []jobspec.Spec // hashed by jobspec
}

var checksumSink uint64

// timeLayers runs the traced pass's public-function timings and records
// them as metrics and in the trace's layers.json.
func timeLayers(c *collector, tr *tracer, in layerInputs) error {
	d := halo.NewDomain(in.haloSize, 2, 4, 4, true)
	dirs := part.Directions26()
	buf := make([]byte, d.MaxHaloBytes(dirs))
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	var bytes int64
	for _, dir := range dirs {
		d.Unpack(buf, dir) // fills the halo shell as well as the send regions' sources
		bytes += d.HaloBytes(dir)
	}
	pack := measure("halo.Domain.Pack, 26 directions", func() {
		for _, dir := range dirs {
			d.Pack(buf, dir)
		}
	})
	unpack := measure("halo.Domain.Unpack, 26 directions", func() {
		for _, dir := range dirs {
			d.Unpack(buf, dir)
		}
	})
	checksum := measure("halo.Domain.RegionChecksum, 26 send regions", func() {
		for _, dir := range dirs {
			checksumSink ^= d.RegionChecksum(d.SendRegion(dir))
		}
	})

	if _, err := part.NewHier(in.domain, in.nodes, 6); err != nil {
		return err
	}
	hier := measure("part.NewHier", func() { part.NewHier(in.domain, in.nodes, 6) })

	hashAll := func() error {
		for _, sp := range in.specs {
			s := sp
			if err := s.Normalize(); err != nil {
				return err
			}
			if err := s.Validate(); err != nil {
				return err
			}
			if _, err := s.Hash(); err != nil {
				return err
			}
			if _, err := s.SetupHash(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := hashAll(); err != nil {
		return fmt.Errorf("jobspec: %w", err)
	}
	hash := measure(fmt.Sprintf("jobspec Normalize+Validate+Hash+SetupHash, %d specs", len(in.specs)), func() { hashAll() })

	// Bytes per nanosecond are GB/s.
	c.set("halo.pack_gbps", float64(bytes)/pack.BestNs, 5)
	c.set("halo.unpack_gbps", float64(bytes)/unpack.BestNs, 5)
	c.set("halo.checksum_gbps", float64(bytes)/checksum.BestNs, 5)
	c.set("part.new_hier_ms", hier.BestNs/1e6, 5)
	c.set("jobspec.hash_us", hash.BestNs/1e3/float64(len(in.specs)), 5)
	tr.timings = append(tr.timings, pack, unpack, checksum, hier, hash)
	return nil
}
