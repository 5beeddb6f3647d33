package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	stencil "github.com/nodeaware/stencil"
)

// faultEvents runs a small nvlink-kill job with adaptation and telemetry and
// writes its NDJSON event log, exercising the real pipeline end to end.
func faultEvents(t *testing.T) string {
	t.Helper()
	tel := stencil.NewTelemetry()
	sc := &stencil.FaultScenario{Name: "test"}
	sc.KillNVLink(1e-4, 0, 0, 1, 0)
	dd, err := stencil.New(stencil.Config{
		Nodes:        1,
		RanksPerNode: 2,
		Domain:       stencil.Dim3{X: 24, Y: 24, Z: 24},
		Radius:       1,
		Quantities:   2,
		Capabilities: stencil.CapsAll(),
		Fault:        sc,
		Adaptive:     true,
		Telemetry:    tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	dd.Exchange(4)
	path := filepath.Join(t.TempDir(), "events.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tel.WriteEvents(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReportMode: the report digests a real event log into the three
// sections — phase breakdown, hot links, and the method-flip ledger showing
// the fault and the demotions it caused.
func TestReportMode(t *testing.T) {
	path := faultEvents(t)
	var buf strings.Builder
	if err := run([]string{"-events", path, "-top", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"per-phase breakdown", "exchange", "setup.specialization",
		"hottest links", "nvlink",
		"method ledger:", "fault link-fail", "-> STAGED", "method flips",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportModeMissingFile(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-events", "/nonexistent.ndjson"}, &buf); err == nil {
		t.Error("expected error for missing event log")
	}
}

func TestNoArgs(t *testing.T) {
	var buf strings.Builder
	if err := run(nil, &buf); err == nil {
		t.Error("expected error with no mode selected")
	}
}
