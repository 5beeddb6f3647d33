// Command stencil-bench is the repository benchmark. It runs one workload
// against the simulator or the stencilserve job service, checks every output,
// and prints one JSON result line as its last line of standard output: the
// end-to-end metrics on the timed pass (-trace 0) or the per-layer metrics on
// the traced pass (-trace 1). README.md describes the workloads and metrics.
//
//	stencil-bench -workload weak64 -seed 1 -seconds 10 -trace 0 -out runs.ndjson
//	stencil-bench -compare base.ndjson change.ndjson
//	stencil-bench -write-ref ref.json
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stencil-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "sets the pass's fixed job count: about this many seconds of work on the reference host")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics, 0 the timed pass")
	work := fs.String("work", ".bench_build", "scratch directory for serve data and trace output")
	out := fs.String("out", "", "also append the run's record to this NDJSON file, the input of -compare")
	compare := fs.Bool("compare", false, "compare the records of two -out files given as arguments")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	writeRef := fs.String("write-ref", "", "regenerate the reference virtual times of seeds 1-3 into this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "stencil-bench: -compare needs two record files")
			return 2
		}
		var regressed bool
		if regressed, err = compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout); err == nil && regressed {
			return 1
		}
	case *writeRef != "":
		err = writeReference(*writeRef, *work)
	default:
		rc := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, work: *work}
		err = runOne(*name, rc, *out, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "stencil-bench:", err)
		return 1
	}
	return 0
}

// runConfig is what one pass of a workload is generated and run from.
type runConfig struct {
	seed int64
	// seconds sets the job count: the number of jobs that take about this
	// long on the reference host, so both sides of a comparison do the
	// same work.
	seconds float64
	traced  bool
	smoke   bool // tiny inputs, for the smoke test
	work    string
	// ref maps a configuration to the iteration times every job of it
	// must reproduce bit for bit.
	ref map[string][]float64
	// record, when set, receives the first job's iteration times per
	// configuration (-write-ref).
	record map[string][]float64
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as -out stores it and -compare reads it.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Traced   bool           `json:"traced"`
	Result   result         `json:"result"`
	Samples  map[string]int `json:"samples"`
}

//go:embed ref.json
var refJSON []byte

func runOne(name string, rc runConfig, out string, stdout, stderr io.Writer) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if err := json.Unmarshal(refJSON, &rc.ref); err != nil {
		return fmt.Errorf("ref.json: %w", err)
	}
	rec, err := execute(w, rc, stderr)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	if out != "" {
		if err := appendRecord(out, rec); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// execute runs one pass of a workload and assembles its record. The traced
// pass also writes its spans, CPU profile and layer timings under
// work/trace/<workload>-seed<N>/.
func execute(w workload, rc runConfig, log io.Writer) (record, error) {
	c := newCollector()
	var tr *tracer
	if rc.traced {
		tr = newTracer()
	}
	if err := w.run(rc, c, tr); err != nil {
		return record{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if c.attempted == 0 {
		return record{}, fmt.Errorf("%s: no operation ran", w.name)
	}
	defs := endToEnd
	if rc.traced {
		defs = perLayer
		dir := filepath.Join(rc.work, "trace", fmt.Sprintf("%s-seed%d", w.name, rc.seed))
		if err := tr.write(dir); err != nil {
			return record{}, err
		}
		fmt.Fprintf(log, "%s: trace written to %s\n", w.name, dir)
	} else {
		c.set("peak_rss_mb", peakRSSMB(), 1)
	}
	rec := record{
		Workload: w.name, Seed: rc.seed, Traced: rc.traced,
		Result: result{
			Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed,
			Metrics: make(map[string]metric, len(defs)),
		},
		Samples: make(map[string]int, len(defs)),
	}
	for _, d := range defs {
		v, ok := c.values[d.name]
		if !ok && !rc.traced {
			return record{}, fmt.Errorf("%s: end-to-end metric %s not measured", w.name, d.name)
		}
		// Per-layer metrics of a layer the workload does not reach read 0.
		rec.Result.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		rec.Samples[d.name] = c.samples[d.name]
		fmt.Fprintf(log, "%-36s %14.6g %-6s n=%d\n", d.name, v, d.unit, c.samples[d.name])
	}
	fmt.Fprintf(log, "%s seed %d: %d of %d operations failed\n", w.name, rc.seed, c.failed, c.attempted)
	for _, f := range c.failures {
		fmt.Fprintln(log, "  failure:", f)
	}
	return rec, nil
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// collector gathers one pass's operation outcomes and metric values.
type collector struct {
	attempted, failed int
	failures          []string // the first few, for the log
	values            map[string]float64
	samples           map[string]int
}

func newCollector() *collector {
	return &collector{values: map[string]float64{}, samples: map[string]int{}}
}

// op counts one operation (a simulation job or a serve job) and whether its
// outputs checked out.
func (c *collector) op(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.failures) < 5 {
			c.failures = append(c.failures, err.Error())
		}
	}
}

// set records a metric and the number of samples behind it. Values that are
// not finite (a ratio over zero work) read 0.
func (c *collector) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	c.values[name] = v
	c.samples[name] = n
}

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks, or 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB of 10^6
// bytes, or the Go runtime's total obtained memory where /proc is absent.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil && kb > 0 {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return float64(readRuntime().sys) / 1e6
}
