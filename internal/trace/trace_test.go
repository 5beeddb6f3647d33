package trace

import (
	"bytes"
	"strings"
	"testing"

	"github.com/nodeaware/stencil/internal/cudart"
	"github.com/nodeaware/stencil/internal/telemetry"
)

func sampleOps() []telemetry.Op {
	return []telemetry.Op{
		{Kind: "kernel", Name: "pack", Device: 0, Stream: "d0.s1", Start: 0.001, End: 0.002, Bytes: 100},
		{Kind: "memcpyD2D", Name: "cp", Device: 0, Stream: "d0.s1", Start: 0.002, End: 0.004, Bytes: 100},
		{Kind: "kernel", Name: "unpack", Device: 1, Stream: "d1.s1", Start: 0.004, End: 0.005, Bytes: 100},
		{Kind: "memcpyD2H", Name: "d2h", Device: 1, Stream: "d1.s2", Start: 0.001, End: 0.003, Bytes: 50},
	}
}

func TestSpanAndStats(t *testing.T) {
	tl := New(sampleOps())
	start, end := tl.Span()
	if start != 0.001 || end != 0.005 {
		t.Errorf("span = [%g, %g], want [0.001, 0.005]", start, end)
	}
	s := tl.ComputeStats()
	if s.Ops != 4 || s.Devices != 2 || s.Streams != 3 {
		t.Errorf("stats = %+v", s)
	}
	wantBusy := 0.001 + 0.002 + 0.001 + 0.002
	if diff := s.BusyTime - wantBusy; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("busy = %g, want %g", s.BusyTime, wantBusy)
	}
	if s.Overlap <= 1 {
		t.Errorf("overlap = %g, want > 1 (ops overlap in this sample)", s.Overlap)
	}
	if s.TotalBytes != 350 {
		t.Errorf("bytes = %d", s.TotalBytes)
	}
}

func TestEmptyTimeline(t *testing.T) {
	tl := New(nil)
	if s := tl.ComputeStats(); s.Ops != 0 || s.Overlap != 0 {
		t.Errorf("empty stats = %+v", s)
	}
	var buf bytes.Buffer
	tl.RenderASCII(&buf, 40)
	if !strings.Contains(buf.String(), "empty") {
		t.Error("empty timeline not reported")
	}
}

func TestSortedByDeviceStream(t *testing.T) {
	tl := New(sampleOps())
	for i := 1; i < len(tl.Ops); i++ {
		a, b := tl.Ops[i-1], tl.Ops[i]
		if a.Device > b.Device {
			t.Fatal("not sorted by device")
		}
		if a.Device == b.Device && a.Stream > b.Stream {
			t.Fatal("not sorted by stream")
		}
	}
}

// Every OpKind must render as a real glyph: a '?' in a Gantt chart means a
// kind was added to cudart without a Glyphs entry (this happened with the
// host-side staging copies, which rendered as '?' until OpMemcpyH2H got '=').
func TestGlyphsCoverAllOpKinds(t *testing.T) {
	seen := make(map[byte]cudart.OpKind)
	for k := cudart.OpKind(0); k < cudart.NumOpKinds; k++ {
		g, ok := Glyphs[k.String()]
		if !ok || g == 0 || g == '?' {
			t.Errorf("OpKind %v has no glyph (got %q)", k, g)
			continue
		}
		// Glyphs must also be distinct, or two kinds become indistinguishable
		// in a chart (retransmits masquerading as kernels, say).
		if prev, dup := seen[g]; dup {
			t.Errorf("OpKind %v and %v share glyph %q", prev, k, g)
		}
		seen[g] = k
	}
	if len(Glyphs) != int(cudart.NumOpKinds) {
		t.Errorf("Glyphs has %d entries, want %d (stale entry for a removed kind?)", len(Glyphs), cudart.NumOpKinds)
	}
}

// Protocol activity (retransmitted sends, verification re-exchanges) must be
// visible in the Gantt rendering with its own glyphs.
func TestRenderASCIIProtocolOps(t *testing.T) {
	ops := []telemetry.Op{
		{Kind: "retransmit", Name: "mpi.nic", Device: -1, Stream: "wire", Start: 0, End: 0.002, Bytes: 1 << 20},
		{Kind: "reexchange", Name: "verify", Device: -1, Stream: "verify", Start: 0.002, End: 0.003, Bytes: 1 << 18},
	}
	var buf bytes.Buffer
	New(ops).RenderASCII(&buf, 40)
	out := buf.String()
	for _, want := range []string{"d-1 wire", "d-1 verify", "R", "X"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestRenderASCII(t *testing.T) {
	tl := New(sampleOps())
	var buf bytes.Buffer
	tl.RenderASCII(&buf, 60)
	out := buf.String()
	for _, want := range []string{"d0.s1", "d1.s1", "d1.s2", "K", "P", "v"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // 3 stream rows + time footer
		t.Errorf("rendered %d lines, want 4:\n%s", len(lines), out)
	}
}

// Two devices running streams with identical names must render as separate
// lanes (rows are keyed by device AND stream, labels carry the device id).
func TestRenderASCIIDuplicateStreamNames(t *testing.T) {
	ops := []telemetry.Op{
		{Kind: "kernel", Name: "a", Device: 0, Stream: "send", Start: 0, End: 0.001},
		{Kind: "memcpyD2D", Name: "b", Device: 1, Stream: "send", Start: 0, End: 0.001},
	}
	var buf bytes.Buffer
	New(ops).RenderASCII(&buf, 20)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // 2 lanes + footer, NOT one merged lane
		t.Fatalf("rendered %d lines, want 3:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "d0 send") || !strings.Contains(out, "d1 send") {
		t.Fatalf("lanes not labeled by device:\n%s", out)
	}
	if !strings.Contains(lines[0], "K") || !strings.Contains(lines[1], "P") {
		t.Fatalf("lane glyphs merged:\n%s", out)
	}
}

func TestRenderASCIIWidthGuard(t *testing.T) {
	tl := New(sampleOps())
	for _, width := range []int{-5, 0, 1} {
		var buf bytes.Buffer
		tl.RenderASCII(&buf, width) // must not panic
		if buf.Len() == 0 {
			t.Fatalf("width %d produced no output", width)
		}
	}
}

// A timeline where every op starts and ends at the same instant must render
// without dividing by a zero span, and each op still shows one glyph.
func TestRenderASCIISingleInstant(t *testing.T) {
	ops := []telemetry.Op{
		{Kind: "kernel", Name: "a", Device: 0, Stream: "s", Start: 0.5, End: 0.5},
		{Kind: "memcpyD2H", Name: "b", Device: 0, Stream: "t", Start: 0.5, End: 0.5},
	}
	var buf bytes.Buffer
	New(ops).RenderASCII(&buf, 30)
	out := buf.String()
	if !strings.Contains(out, "K") || !strings.Contains(out, "v") {
		t.Fatalf("zero-duration ops not rendered:\n%s", out)
	}
}

func TestRenderASCIIZeroSpanTimeline(t *testing.T) {
	var buf bytes.Buffer
	New(nil).RenderASCII(&buf, 0)
	if !strings.Contains(buf.String(), "empty") {
		t.Fatalf("empty timeline with zero width: %q", buf.String())
	}
}

func TestComputeStatsSerialVsParallel(t *testing.T) {
	serial := New([]telemetry.Op{
		{Kind: "kernel", Device: 0, Stream: "a", Start: 0, End: 1},
		{Kind: "kernel", Device: 0, Stream: "a", Start: 1, End: 2},
	})
	if s := serial.ComputeStats(); s.Overlap != 1 {
		t.Fatalf("fully serial overlap = %g, want 1", s.Overlap)
	}
	par := New([]telemetry.Op{
		{Kind: "kernel", Device: 0, Stream: "a", Start: 0, End: 1},
		{Kind: "kernel", Device: 1, Stream: "b", Start: 0, End: 1},
	})
	if s := par.ComputeStats(); s.Overlap != 2 {
		t.Fatalf("fully parallel overlap = %g, want 2", s.Overlap)
	}
}
