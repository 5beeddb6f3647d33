package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke: the Gantt report renders for a small per-GPU domain.
func TestRunSmoke(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-edge", "64", "-width", "60"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"one exchange: 1n/1r/2g, 64^3 per GPU",
		"exchange time", "overlap factor",
		"K=pack/unpack/self kernel",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunChromeTrace: -chrome writes parseable trace-event JSON.
func TestRunChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var buf strings.Builder
	if err := run([]string{"-edge", "64", "-chrome", path}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}
}

// TestGoldens reruns the committed Fig 9 report with the command documented
// in results/README.md and requires the text report and the Chrome trace
// byte for byte; only the last report line, which names the trace file's
// path, may differ. Regenerate both deliberately with:
//
//	exchtrace -edge 64 -width 100 -chrome results/exchtrace-64.json > results/exchtrace-64.txt
func TestGoldens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if err := run([]string{"-edge", "64", "-width", "100", "-chrome", path}, &buf); err != nil {
		t.Fatal(err)
	}
	wantText, err := os.ReadFile(filepath.Join("..", "..", "results", "exchtrace-64.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dropLastLine(buf.Bytes()), dropLastLine(wantText); !bytes.Equal(got, want) {
		t.Errorf("results/exchtrace-64.txt differs from a fresh run (%d vs %d bytes before the last line)", len(want), len(got))
	}
	gotJSON, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := os.ReadFile(filepath.Join("..", "..", "results", "exchtrace-64.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("results/exchtrace-64.json differs from a fresh run (%d vs %d bytes)", len(wantJSON), len(gotJSON))
	}
}

// dropLastLine strips the final newline-terminated line.
func dropLastLine(b []byte) []byte {
	b = bytes.TrimSuffix(b, []byte("\n"))
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[:i+1]
	}
	return nil
}
