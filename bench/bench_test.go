package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestDefinitionMatchesBenchmarkJSON keeps the metrics and workloads the
// benchmark prints in step with the ones BENCHMARK.json declares.
func TestDefinitionMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, benchmark runs %q", got, want)
	}
	for _, set := range []struct {
		declared []struct{ Name, Unit string }
		printed  []metricDef
	}{{def.EndToEnd, endToEnd}, {def.PerLayer, perLayer}} {
		if len(set.declared) != len(set.printed) {
			t.Errorf("BENCHMARK.json declares %d metrics, benchmark prints %d", len(set.declared), len(set.printed))
			continue
		}
		for i, d := range set.declared {
			if p := set.printed[i]; d.Name != p.name || d.Unit != p.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, d.Name, d.Unit, p.name, p.unit)
			}
		}
	}
}

// TestSmoke runs both passes of every workload on tiny inputs and checks
// that the result line carries every declared metric with its unit, that
// every output checked out, and that the CPU shares sum to one.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			rc := runConfig{seed: 4, traced: traced, smoke: true, work: t.TempDir()}
			rec, err := execute(w, rc, &log)
			if err != nil {
				t.Fatalf("%s traced %t: %v\n%s", w.name, traced, err, log.String())
			}
			line, err := json.Marshal(rec.Result)
			if err != nil {
				t.Fatal(err)
			}
			var res result
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatalf("%s traced %t: result line: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced %t: correct %t, %d of %d failed\n%s", w.name, traced, res.Correct, res.Failed, res.Attempted, log.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced %t: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			shares := 0.0
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok || m.Unit != d.unit:
					t.Errorf("%s traced %t: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
				if strings.HasSuffix(d.name, ".cpu_share") {
					shares += m.Value
				}
			}
			if traced && math.Abs(shares-1) > 0.01 {
				t.Errorf("%s: cpu shares sum to %v, want 1", w.name, shares)
			}
		}
	}
}

// TestCorruptedReferenceFails proves the virtual-time check checks: a
// reference one ulp off in its first iteration fails every job.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, w := range workloads {
		if !w.referenced {
			continue
		}
		got := map[string][]float64{}
		rc := runConfig{seed: 4, smoke: true, work: t.TempDir(), record: got}
		if err := w.run(rc, newCollector(), nil); err != nil {
			t.Fatal(err)
		}
		for _, iters := range got {
			iters[0] = math.Nextafter(iters[0], math.Inf(1))
		}
		rc.record, rc.ref = nil, got
		c := newCollector()
		if err := w.run(rc, c, nil); err != nil {
			t.Fatal(err)
		}
		if c.failed == 0 || c.failed != c.attempted {
			t.Errorf("%s: %d of %d jobs failed against a corrupted reference, want all", w.name, c.failed, c.attempted)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	if got, want := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles(1..10) = %v, want %v", got, want)
	}
	if got, want := quartiles([]float64{3, 1}), [3]float64{0.5, 2, 3.5}; got != want {
		t.Errorf("quartiles(1, 3) = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		change []float64
		higher bool
		want   string
	}{
		{[]float64{100, 101, 99, 100, 102}, false, "unchanged"},
		{[]float64{120, 121, 119, 120, 122}, false, "regressed"},
		{[]float64{120, 121, 119, 120, 122}, true, "improved"},
		{[]float64{95, 96, 94, 95, 97}, false, "improved"},
		{[]float64{60, 100, 140, 100, 180}, false, "unresolved"},
	} {
		if got := judge(base, tc.change, tc.higher, 0.1).word; got != tc.want {
			t.Errorf("judge(%v, higher=%t) = %s, want %s", tc.change, tc.higher, got, tc.want)
		}
	}
}
