package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nodeaware/stencil/internal/telemetry"
)

// TestTranscriptGoldens reruns each committed faultsim transcript with the
// command documented in results/README.md and requires it byte for byte:
// every number in a transcript is virtual time or a count derived from it.
// Regenerate a transcript deliberately by redirecting the same command into
// its file in results/.
func TestTranscriptGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"faultsim.txt", []string{"-scenario", "nvlink-kill"}},
		{"faultsim-flap.txt", []string{"-scenario", "nvlink-flap", "-outage-iters", "530", "-iters", "16"}},
		{"faultsim-recovery.txt", []string{"-nodes", "2", "-domain", "24", "-iters", "8",
			"-kill", "0:1@2.5", "-killrank", "3@4.2", "-verify"}},
		{"faultsim-lossy.txt", []string{"-nodes", "2", "-domain", "24", "-iters", "8",
			"-drop", "0.15", "-corrupt", "0.15", "-dup", "0.1", "-retries", "3", "-seed", "7", "-flap", "3", "-verify"}},
	} {
		t.Run(strings.TrimSuffix(tc.golden, ".txt"), func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(tc.args, &buf); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "results", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("results/%s differs from a fresh run (%d vs %d bytes); regenerate it with: faultsim %s > results/%[1]s",
					tc.golden, len(want), buf.Len(), strings.Join(tc.args, " "))
			}
		})
	}
}

// TestRunNVLinkKill: the acceptance scenario end to end through the driver —
// the adaptive replay demotes the NVLink plans, verifies halos, and beats
// the non-adaptive replay.
func TestRunNVLinkKill(t *testing.T) {
	var buf strings.Builder
	args := []string{"-scenario", "nvlink-kill", "-domain", "24", "-iters", "4", "-verify"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"healthy iteration:", "scenario nvlink-kill:",
		"method selection", "fault timeline:", "adaptation timeline:",
		"adapted)", "adaptive wins:",
		"halo verification: byte-identical in both runs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunKillSchedule: the recovery scenario end to end through the driver —
// -kill and -killrank build a fatal schedule, checkpointing defaults on, the
// recovery timeline is printed, and the recovered run stays byte-identical.
func TestRunKillSchedule(t *testing.T) {
	var buf strings.Builder
	args := []string{"-nodes", "2", "-domain", "24", "-iters", "8",
		"-kill", "0:1@2.5", "-killrank", "3@4.2", "-verify"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"scenario kill-schedule:", "(checkpoint every 2 iters)",
		"permanent loss of n0.gpu.1", "permanent loss of rank3",
		"recovery timeline:",
		"checkpoint epoch 0 committed", "failure", "rollback", "migrate", "resume",
		"recovery summary:", "2 rollbacks", "4 subdomains migrated",
		"halo verification: byte-identical in both runs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunBadKillSpec: malformed kill specs are reported as flag errors.
func TestRunBadKillSpec(t *testing.T) {
	for _, args := range [][]string{
		{"-kill", "0:1"},
		{"-kill", "banana"},
		{"-killrank", "3"},
		{"-kill", "0:1@-2"},
	} {
		var buf strings.Builder
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

// TestRunStraggle: a scenario with no link damage still replays cleanly (no
// adaptation is expected; kernels just slow down).
func TestRunStraggle(t *testing.T) {
	var buf strings.Builder
	args := []string{"-scenario", "gpu-straggle", "-domain", "24", "-iters", "3", "-factor", "0.5"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fault timeline:") {
		t.Errorf("output missing fault timeline:\n%s", buf.String())
	}
}

// TestRunBadScenario: unknown scenarios are reported as errors.
func TestRunBadScenario(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-scenario", "meteor-strike"}, &buf); err == nil {
		t.Error("expected error for unknown scenario")
	}
}

// TestRunTelemetryOutputs: -metrics and -events capture the adaptive run —
// the event log tells the fault -> adapt story and the snapshot report counts
// the switches.
func TestRunTelemetryOutputs(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	events := filepath.Join(dir, "e.ndjson")
	args := []string{"-scenario", "nvlink-kill", "-domain", "24", "-iters", "4",
		"-metrics", metrics, "-events", events}
	var buf strings.Builder
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}

	rep, err := telemetry.ReadReport(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "faultsim" || len(rep.Runs) != 1 {
		t.Fatalf("report shape: %+v", rep)
	}
	var switches float64
	for _, c := range rep.Runs[0].Snapshot.Counters {
		if c.Name == "adapt_switches_total" {
			switches += c.Value
		}
	}
	if switches == 0 {
		t.Error("adaptive nvlink-kill run recorded no adapt_switches_total")
	}

	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	var faults, adapts int
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", line, err)
		}
		switch m["kind"] {
		case "fault":
			faults++
		case "adapt":
			adapts++
		}
	}
	if faults == 0 || adapts == 0 {
		t.Errorf("event log has %d fault and %d adapt events, want both > 0", faults, adapts)
	}
}
