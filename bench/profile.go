package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The benchmark attributes its own CPU profile to the repository's layers.
// runtime/pprof writes the profile as gzipped protocol buffers; the decoder
// below reads only the fields attribution needs: each sample's stack and CPU
// time, each location's (inlined) functions, each function's name.

const repoPath = "github.com/nodeaware/stencil"

// repoLayers are the internal packages reported as layers of their own.
// Frames in other repository packages count as other; frames in the root
// package (the public stencil API) as stencil.
var repoLayers = map[string]bool{
	"sim": true, "flownet": true, "machine": true, "cudart": true, "mpi": true,
	"halo": true, "part": true, "placement": true, "exchange": true,
	"jobspec": true, "serve": true,
}

// cpuLayers lists every layer a sample can be attributed to, in report order.
var cpuLayers = []string{
	"sim", "flownet", "machine", "cudart", "mpi", "halo", "part", "placement",
	"exchange", "jobspec", "serve", "stencil", "runtime_gc", "runtime_sched", "other",
}

// gcFrames mark a sample as garbage-collector work wherever they appear on
// its stack, so assists inside a layer's allocation count too.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.bgsweep": true,
	"runtime.bgscavenge": true, "runtime.gcStart": true, "runtime.gcMarkDone": true,
	"runtime.gcMarkTermination": true, "runtime.sweepone": true,
}

var schedFrames = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.goschedImpl": true, "runtime.mstart": true, "runtime.sysmon": true,
}

var errProfile = errors.New("malformed CPU profile")

// cpuProfile is a CPU profile reduced to nanoseconds per layer.
type cpuProfile struct {
	layerNS map[string]int64
	gcNS    int64 // samples with a collector frame anywhere on the stack
	totalNS int64
}

// layerCPU decodes a gzipped pprof CPU profile and attributes its CPU time.
// A sample goes to the innermost frame in a package of this repository, so
// hash/fnv under halo.RegionChecksum counts as halo. Samples with no
// repository frame go to runtime_gc (collector workers), runtime_sched (the
// scheduler) or other.
func layerCPU(profile []byte) (cpuProfile, error) {
	p := cpuProfile{layerNS: make(map[string]int64, len(cpuLayers))}
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return p, fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return p, fmt.Errorf("CPU profile: %w", err)
	}
	type sample struct{ locs, values []uint64 }
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name index in strs
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(field, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(field, wire int, v uint64, b []byte) (err error) {
				switch field {
				case 1:
					s.locs, err = appendVarints(s.locs, wire, v, b)
				case 2:
					s.values, err = appendVarints(s.values, wire, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(field, wire int, v uint64, b []byte) error {
				switch field {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(field, wire int, v uint64, _ []byte) error {
						if field == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(field, wire int, v uint64, _ []byte) error {
				switch field {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return p, fmt.Errorf("CPU profile: %w", err)
	}
	var stack []string
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		stack = stack[:0]
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		// The last sample value is CPU time in nanoseconds.
		ns := int64(s.values[len(s.values)-1])
		layer, gc := attribute(stack)
		p.layerNS[layer] += ns
		p.totalNS += ns
		if gc {
			p.gcNS += ns
		}
	}
	return p, nil
}

// attribute maps one stack, innermost frame first, to its layer, and reports
// whether the stack does collector work.
func attribute(stack []string) (layer string, gc bool) {
	sched := false
	for _, fn := range stack {
		gc = gc || gcFrames[fn]
		sched = sched || schedFrames[fn]
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, repoPath+"/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 && repoLayers[rest[:i]] {
				return rest[:i], gc
			}
			return "other", gc
		}
		if strings.HasPrefix(fn, repoPath+".") {
			return "stencil", gc
		}
	}
	switch {
	case gc:
		return "runtime_gc", gc
	case sched:
		return "runtime_sched", gc
	}
	return "other", gc
}

// eachField calls fn for every field of one protocol-buffer message: v holds
// varint and fixed-width values, b the bytes of length-delimited ones.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProfile
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProfile
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProfile
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errProfile
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProfile
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errProfile
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, which runtime/pprof writes
// either packed (wire type 2) or one value per field (wire type 0).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errProfile
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
