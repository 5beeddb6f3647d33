// The feature-cost benchmark matrix: every optional layer off/on × node
// count, reporting what each feature adds on top of the bare exchange.
// cmd/stencilbench runs it (-experiment matrix, -matrix FILE); every field is
// deterministic, so the regenerated report must equal the committed
// results/MATRIX.json byte for byte.
package figures

import (
	"fmt"

	"github.com/nodeaware/stencil/internal/exchange"
	"github.com/nodeaware/stencil/internal/part"
	"github.com/nodeaware/stencil/internal/telemetry"
)

// MatrixSchema identifies the MATRIX.json document layout.
const MatrixSchema = "stencil-matrix/1"

// MatrixNodeCounts is the node-count axis of the matrix. cmd/stencilbench's
// TestMatrixGoldenCoverage requires every feature measured at two or more
// counts in the committed results/MATRIX.json.
var MatrixNodeCounts = []int{1, 2}

// MatrixCell is one (feature, node count) measurement: virtual time, engine
// counts and the feature ledger, all deterministic. Host cost (wall time,
// allocations) is bench/'s to measure.
type MatrixCell struct {
	Feature         string  `json:"feature"`
	Nodes           int     `json:"nodes"`
	Config          string  `json:"config"`
	VirtualSeconds  float64 `json:"virtual_seconds"`
	BaselineSeconds float64 `json:"baseline_seconds"`
	DeltaSeconds    float64 `json:"delta_seconds"`
	Ratio           float64 `json:"ratio"`

	EventsScheduled uint64 `json:"events_scheduled"`
	EventsExecuted  uint64 `json:"events_executed"`
	ProcsSpawned    uint64 `json:"procs_spawned"`
	PeakEventQueue  int    `json:"peak_event_queue"`

	Ledger []telemetry.LedgerEntry `json:"ledger"`
}

// MatrixReport is the top-level MATRIX.json document.
type MatrixReport struct {
	Schema string       `json:"schema"`
	Tool   string       `json:"tool"`
	Iters  int          `json:"iters"`
	Cells  []MatrixCell `json:"cells"`
}

// matrixOpts is the shared small real-data configuration every cell starts
// from: large enough that every feature has work to do (checksums need
// bytes, checkpoints need snapshots), small enough that the full matrix is
// a CI smoke job.
func matrixOpts(nodes int) exchange.Options {
	return exchange.Options{
		Nodes:        nodes,
		RanksPerNode: 2,
		Domain:       part.Dim3{X: 24, Y: 24, Z: 24},
		Radius:       1,
		Quantities:   1,
		ElemSize:     4,
		Caps:         exchange.CapsAll(),
		NodeAware:    true,
		RealData:     true,
		Workers:      Workers,
	}
}

// matrixFeature applies one feature's flags on top of the shared base.
var matrixFeatures = []struct {
	name  telemetry.Feature
	apply func(*exchange.Options)
}{
	{telemetry.FeatureBaseline, func(*exchange.Options) {}},
	{telemetry.FeatureReliable, func(o *exchange.Options) { o.Reliable = true }},
	{telemetry.FeatureVerify, func(o *exchange.Options) { o.VerifyExchange = true }},
	{telemetry.FeatureOverlap, func(o *exchange.Options) { o.Overlap = true }},
	{telemetry.FeatureRecovery, func(o *exchange.Options) { o.CheckpointEvery = 2 }},
	{telemetry.FeatureAdapt, func(o *exchange.Options) { o.Adaptive = true }},
	// FeatureSelf is measured separately: the baseline run with and
	// without a recorder attached (see Matrix).
}

// matrixRun executes one configuration and collects its measurements.
// telemetry may be nil (the self cell's off run).
func matrixRun(opts exchange.Options, iters int, tel *telemetry.Recorder) (*MatrixCell, error) {
	opts.Telemetry = tel
	e, err := exchange.New(opts)
	if err != nil {
		return nil, err
	}
	v0 := float64(e.Eng.Now())
	e.RunWithCompute(iters, func(*exchange.Sub) {})
	cell := &MatrixCell{
		Nodes:          opts.Nodes,
		Config:         opts.ConfigString(),
		VirtualSeconds: float64(e.Eng.Now()) - v0,
	}
	c := e.Eng.Counts()
	cell.EventsScheduled = c.Scheduled
	cell.EventsExecuted = c.Executed
	cell.ProcsSpawned = c.Spawned
	cell.PeakEventQueue = c.PeakQueue
	if tel != nil {
		cell.Ledger = tel.Ledger()
	}
	return cell, nil
}

// Matrix measures every feature off/on at each node count. Per node count
// the baseline runs first; every feature cell reports its virtual-time
// delta and ratio against that baseline. The telemetry-self cell runs the
// baseline twice — recorder off then on — and additionally asserts the
// recorder changed nothing: a nonzero virtual-time delta there is a bug
// (the recorder must be passive), reported as an error so CI fails loudly.
func Matrix(iters int) ([]Row, *MatrixReport, error) {
	rep := &MatrixReport{Schema: MatrixSchema, Tool: "stencilbench", Iters: iters}
	var rows []Row
	for _, nodes := range MatrixNodeCounts {
		var base *MatrixCell
		for _, f := range matrixFeatures {
			opts := matrixOpts(nodes)
			f.apply(&opts)
			tel := telemetry.New()
			tel.LinkEvents = false
			cell, err := matrixRun(opts, iters, tel)
			if err != nil {
				return nil, nil, fmt.Errorf("matrix %s %dn: %w", f.name, nodes, err)
			}
			cell.Feature = string(f.name)
			if f.name == telemetry.FeatureBaseline {
				base = cell
			}
			finishCell(cell, base)
			rep.Cells = append(rep.Cells, *cell)
			rows = append(rows, matrixRow(cell))
		}
		// telemetry-self: the baseline configuration with the recorder
		// detached. Its "overhead" relative to the recorded baseline must
		// be exactly zero virtual seconds; the interesting number is the
		// recorder's own retained-state entry in the baseline ledger.
		off, err := matrixRun(matrixOpts(nodes), iters, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("matrix telemetry-off %dn: %w", nodes, err)
		}
		if off.VirtualSeconds != base.VirtualSeconds {
			return nil, nil, fmt.Errorf(
				"matrix %dn: telemetry recorder changed virtual time: %g s with vs %g s without (the recorder must be passive)",
				nodes, base.VirtualSeconds, off.VirtualSeconds)
		}
		self := &MatrixCell{
			Feature:         string(telemetry.FeatureSelf),
			Nodes:           nodes,
			Config:          base.Config,
			VirtualSeconds:  base.VirtualSeconds,
			EventsScheduled: base.EventsScheduled,
			EventsExecuted:  base.EventsExecuted,
			ProcsSpawned:    base.ProcsSpawned,
			PeakEventQueue:  base.PeakEventQueue,
			Ledger:          base.Ledger,
		}
		finishCell(self, base)
		rep.Cells = append(rep.Cells, *self)
		rows = append(rows, matrixRow(self))
	}
	return rows, rep, nil
}

func finishCell(c, base *MatrixCell) {
	c.BaselineSeconds = base.VirtualSeconds
	c.DeltaSeconds = c.VirtualSeconds - base.VirtualSeconds
	if base.VirtualSeconds > 0 {
		c.Ratio = c.VirtualSeconds / base.VirtualSeconds
	}
}

func matrixRow(c *MatrixCell) Row {
	return Row{
		Config:  fmt.Sprintf("%s/%s", c.Config, c.Feature),
		Caps:    c.Feature,
		Nodes:   c.Nodes,
		Seconds: c.VirtualSeconds,
		Extra: fmt.Sprintf("%+.3g ms vs baseline (%.2fx), %d events",
			c.DeltaSeconds*1e3, c.Ratio, c.EventsExecuted),
	}
}
