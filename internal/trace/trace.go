// Package trace turns a telemetry recorder's op timeline into an analyzable
// form: per-stream lanes, overlap statistics (how much the §III-D machinery
// actually parallelizes) and an ASCII Gantt rendering. The Chrome
// trace-event export of the same timeline is telemetry's
// (Recorder.WriteChromeTrace).
package trace

import (
	"fmt"
	"io"
	"strings"

	"github.com/nodeaware/stencil/internal/telemetry"
)

// Timeline is an ordered set of operation spans.
type Timeline struct {
	Ops []telemetry.Op
}

// New builds a timeline from recorded ops, sorted by device, stream, start.
func New(ops []telemetry.Op) *Timeline {
	t := &Timeline{Ops: append([]telemetry.Op(nil), ops...)}
	telemetry.SortOps(t.Ops)
	return t
}

// Span returns the earliest start and latest end across all ops.
func (t *Timeline) Span() (start, end float64) {
	if len(t.Ops) == 0 {
		return 0, 0
	}
	start, end = t.Ops[0].Start, t.Ops[0].End
	for _, op := range t.Ops {
		if op.Start < start {
			start = op.Start
		}
		if op.End > end {
			end = op.End
		}
	}
	return start, end
}

// Stats summarizes the timeline.
type Stats struct {
	Ops        int
	Devices    int
	Streams    int
	Span       float64 // wall span in seconds
	BusyTime   float64 // sum of op durations
	Overlap    float64 // BusyTime / Span: >1 means real parallelism
	TotalBytes int64
}

// ComputeStats derives summary statistics.
func (t *Timeline) ComputeStats() Stats {
	s := Stats{Ops: len(t.Ops)}
	if len(t.Ops) == 0 {
		return s
	}
	devs := make(map[int]struct{})
	streams := make(map[string]struct{})
	start, end := t.Span()
	for _, op := range t.Ops {
		devs[op.Device] = struct{}{}
		streams[op.Stream] = struct{}{}
		s.BusyTime += op.End - op.Start
		s.TotalBytes += op.Bytes
	}
	s.Devices = len(devs)
	s.Streams = len(streams)
	s.Span = end - start
	if s.Span > 0 {
		s.Overlap = s.BusyTime / s.Span
	}
	return s
}

// Glyphs maps op kinds to ASCII-chart glyphs. Every cudart.OpKind must have
// an entry (enforced by TestGlyphsCoverAllOpKinds): a '?' in a Gantt chart
// means a new kind was added without a glyph.
var Glyphs = map[string]byte{
	"kernel":     'K',
	"memcpyD2D":  'P',
	"memcpyD2H":  'v',
	"memcpyH2D":  '^',
	"memcpyH2H":  '=',
	"retransmit": 'R',
	"reexchange": 'X',
}

// RenderASCII draws a Gantt chart of the timeline, one row per
// (device, stream) lane, `width` characters across the time span. Rows are
// keyed by device AND stream: two devices may reuse the same stream name,
// and a stream-only key would merge their lanes into one garbled row.
func (t *Timeline) RenderASCII(w io.Writer, width int) {
	if len(t.Ops) == 0 {
		fmt.Fprintln(w, "(empty timeline)")
		return
	}
	if width < 1 {
		width = 1
	}
	start, end := t.Span()
	span := end - start
	if span <= 0 {
		// Single-instant timeline: every op collapses to one glyph cell.
		span = 1
	}
	scale := float64(width) / span

	type rowKey struct {
		device int
		stream string
	}
	var last rowKey
	haveRow := false
	var label string
	var row []byte
	flush := func() {
		if haveRow {
			fmt.Fprintf(w, "%-24s |%s|\n", label, string(row))
		}
	}
	for _, op := range t.Ops {
		k := rowKey{op.Device, op.Stream}
		if !haveRow || k != last {
			flush()
			last = k
			haveRow = true
			label = fmt.Sprintf("d%d %s", op.Device, op.Stream)
			row = []byte(strings.Repeat(" ", width))
		}
		lo := int((op.Start - start) * scale)
		hi := int((op.End - start) * scale)
		if lo >= width {
			lo = width - 1
		}
		if hi >= width {
			hi = width - 1
		}
		if hi < lo {
			hi = lo // zero-duration op still renders one glyph
		}
		g := Glyphs[op.Kind]
		if g == 0 {
			g = '?'
		}
		for i := lo; i <= hi; i++ {
			row[i] = g
		}
	}
	flush()
	fmt.Fprintf(w, "%-24s  0%s%.3f ms\n", "time:", strings.Repeat(" ", max(0, width-12)), span*1e3)
}
