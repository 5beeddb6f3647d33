package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nodeaware/stencil/internal/figures"
	"github.com/nodeaware/stencil/internal/telemetry"
)

// TestRunTableI: the cheapest experiment prints its header and rows.
func TestRunTableI(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-experiment", "table1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== table1 ==") {
		t.Errorf("output missing table1 header:\n%s", out)
	}
}

// TestRunJSON: -json writes a BENCH.json-shaped document whose rows mirror
// the text output.
func TestRunJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	var buf strings.Builder
	if err := run([]string{"-experiment", "fig11", "-iters", "1", "-json", path}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("BENCH.json is not valid JSON: %v", err)
	}
	if report.Tool != "stencilbench" || len(report.Experiments) != 1 {
		t.Fatalf("unexpected report shape: %+v", report)
	}
	exp := report.Experiments[0]
	if exp.Name != "fig11" || len(exp.Rows) == 0 {
		t.Fatalf("fig11 experiment empty: %+v", exp)
	}
	for _, r := range exp.Rows {
		if r.Seconds <= 0 {
			t.Errorf("row %q: nonpositive seconds %g", r.Config, r.Seconds)
		}
		if !strings.Contains(buf.String(), r.Config) {
			t.Errorf("text output missing row config %q", r.Config)
		}
	}
}

// TestRunUnknownExperiment: bad selectors are errors, not panics.
func TestRunUnknownExperiment(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-experiment", "fig99"}, &buf); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

// TestRunMetrics: -metrics writes a well-formed telemetry report covering
// the whole capability ladder.
func TestRunMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "METRICS.json")
	var buf strings.Builder
	if err := run([]string{"-iters", "1", "-metrics", path}, &buf); err != nil {
		t.Fatal(err)
	}
	rep, err := telemetry.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != telemetry.SchemaVersion || rep.Tool != "stencilbench" {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Runs) != 4 {
		t.Fatalf("got %d runs, want the 4 ladder rungs", len(rep.Runs))
	}
	for _, r := range rep.Runs {
		if len(r.Snapshot.Counters) == 0 || len(r.Snapshot.Links) == 0 || len(r.Snapshot.Spans) == 0 {
			t.Errorf("run %s %s: empty snapshot sections", r.Config, r.Caps)
		}
	}
}

// TestRunRejectsConflictingOutputs: -metrics and -matrix each select their
// own experiment, so combining them with each other or with a different
// -experiment is an error, not a silently dropped report or experiment.
func TestRunRejectsConflictingOutputs(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-metrics", filepath.Join(dir, "a.json"), "-matrix", filepath.Join(dir, "b.json")},
		{"-experiment", "fig12a", "-metrics", filepath.Join(dir, "c.json")},
		{"-experiment", "metrics", "-matrix", filepath.Join(dir, "d.json")},
	} {
		var buf strings.Builder
		if err := run(append([]string{"-iters", "1"}, args...), &buf); err == nil {
			t.Errorf("run %q: conflicting outputs accepted", args)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("a rejected run wrote %d file(s)", len(entries))
	}
}

// readResult returns a committed file from results/.
func readResult(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "results", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldens regenerates each fast committed golden with CI's exact
// arguments and requires it byte for byte: every field is virtual time or a
// count derived from it, so any difference is a model or schema change.
// Regenerate a golden deliberately by pointing the same arguments at its
// file in results/.
func TestGoldens(t *testing.T) {
	for _, tc := range []struct {
		name, golden string
		args         []string // the output path is appended
	}{
		{"fig12a-smoke", "BENCH-smoke.json", []string{"-experiment", "fig12a", "-iters", "2", "-parallel", "2", "-json"}},
		{"metrics", "METRICS.json", []string{"-iters", "2", "-metrics"}},
		{"matrix", "MATRIX.json", []string{"-experiment", "matrix", "-iters", "3", "-matrix"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tc.golden)
			var buf strings.Builder
			if err := run(append(tc.args, path), &buf); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := readResult(t, tc.golden); !bytes.Equal(got, want) {
				t.Fatalf("results/%s differs from a fresh run (%d vs %d bytes); regenerate it with: stencilbench %s results/%[1]s",
					tc.golden, len(want), len(got), strings.Join(tc.args, " "))
			}
		})
	}
}

// TestOverlapGoldenSpeedup holds the committed overlap golden to the overlap
// pipeline's acceptance bound: on every rung of the 64-node ladder the
// barrier run takes at least 1.2x the overlap run's virtual time.
func TestOverlapGoldenSpeedup(t *testing.T) {
	var report benchReport
	if err := json.Unmarshal(readResult(t, "BENCH-overlap-smoke.json"), &report); err != nil {
		t.Fatal(err)
	}
	seconds := make(map[string]float64)
	for _, e := range report.Experiments {
		for _, r := range e.Rows {
			seconds[e.Name+" "+r.Caps+" "+r.Config] = r.Seconds
		}
	}
	pairs := 0
	for k, barrier := range seconds {
		base, ok := strings.CutSuffix(k, "/barrier")
		if !ok {
			continue
		}
		overlap := seconds[base+"/overlap"]
		if overlap <= 0 {
			t.Errorf("%s: no overlap twin", k)
			continue
		}
		pairs++
		if speedup := barrier / overlap; speedup < 1.2 {
			t.Errorf("%s: barrier/overlap %.3fx < 1.2x", base, speedup)
		}
	}
	if pairs != len(figures.Ladder) {
		t.Fatalf("found %d barrier/overlap pairs, want one per ladder rung (%d)", pairs, len(figures.Ladder))
	}
}

// TestMatrixGoldenCoverage: the committed feature matrix measures every
// telemetry feature tag at two or more node counts, so a feature dropped
// from the matrix cannot pass as a deliberate regeneration.
func TestMatrixGoldenCoverage(t *testing.T) {
	var rep figures.MatrixReport
	if err := json.Unmarshal(readResult(t, "MATRIX.json"), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != figures.MatrixSchema {
		t.Fatalf("schema %q, want %q", rep.Schema, figures.MatrixSchema)
	}
	nodeCounts := make(map[string]map[int]bool)
	for _, c := range rep.Cells {
		if nodeCounts[c.Feature] == nil {
			nodeCounts[c.Feature] = make(map[int]bool)
		}
		nodeCounts[c.Feature][c.Nodes] = true
	}
	for _, f := range telemetry.Features {
		if n := len(nodeCounts[string(f)]); n < 2 {
			t.Errorf("feature %s measured at %d node count(s), want >= 2", f, n)
		}
	}
}
