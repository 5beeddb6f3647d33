package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchDef is the part of BENCHMARK.json that -compare applies.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareFiles prints one row per workload and end-to-end metric, comparing
// the timed runs recorded in base and change, and reports whether any row
// regressed.
func compareFiles(defPath, base, change string, w io.Writer) (bool, error) {
	raw, err := os.ReadFile(defPath)
	if err != nil {
		return false, err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return false, fmt.Errorf("%s: %w", defPath, err)
	}
	a, err := readRecords(base)
	if err != nil {
		return false, err
	}
	b, err := readRecords(change)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-16s %-15s %4s %4s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "nA", "nB", "median A", "median B", "change", "spread", "bound", "verdict")
	regressed := false
	for _, wl := range def.Workloads {
		for _, m := range def.EndToEnd {
			xa, xb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-16s %-15s %4d %4d  missing runs\n", wl.Name, m.Name, len(xa), len(xb))
				continue
			}
			v := judge(xa, xb, m.Better == "higher", m.Bound)
			regressed = regressed || v.word == "regressed"
			fmt.Fprintf(w, "%-16s %-15s %4d %4d %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, len(xa), len(xb), v.medA, v.medB, 100*v.change, 100*v.spread, 100*m.Bound, v.word)
		}
	}
	return regressed, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// values returns one metric of a workload's timed runs.
func values(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict is one metric's comparison. change is the relative move of the
// median toward worse (negative means better); spread is the wider of the
// two sides' interquartile range over median.
type verdict struct {
	medA, medB, change, spread float64
	word                       string
}

// judge applies a bound: a change whose every run beats every base run is
// improved; otherwise a spread wider than the bound leaves the metric
// unresolved, and a median move beyond the bound is regressed or improved.
func judge(a, b []float64, higherIsBetter bool, bound float64) verdict {
	v := verdict{medA: median(a), medB: median(b)}
	v.change = (v.medB - v.medA) / v.medA
	better := func(x, y float64) bool { return x < y }
	if higherIsBetter {
		v.change = -v.change
		better = func(x, y float64) bool { return x > y }
	}
	v.spread = math.Max(iqrShare(a), iqrShare(b))
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case allBetter && v.change < 0:
		v.word = "improved"
	case v.spread > bound:
		v.word = "unresolved"
	case v.change > bound:
		v.word = "regressed"
	case v.change < -bound:
		v.word = "improved"
	default:
		v.word = "unchanged"
	}
	return v
}

// iqrShare is the interquartile range over the median, 0 for fewer than two
// values.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q := quartiles(xs)
	return (q[2] - q[0]) / math.Abs(median(xs))
}

// quartiles computes what Python's statistics.quantiles(xs, n=4) does (the
// exclusive method), so the spreads here match the acceptance check's.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
