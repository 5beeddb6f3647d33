// Command stencilbench regenerates the paper's evaluation figures on the
// simulated platform and prints their rows.
//
// Usage:
//
//	stencilbench -experiment table1|fig3|fig11|fig12a|fig12b|fig12c|fig13|overlap|metrics|matrix|all
//	             [-maxnodes N] [-iters K] [-json FILE] [-metrics FILE] [-matrix FILE] [-parallel N]
//
// Every number printed or written is virtual (simulated) time or a count
// derived from it, so each output is deterministic and the committed goldens
// in results/ are compared byte for byte. What the simulator itself costs
// in wall time is measured by the benchmark harness in bench/.
//
// With -json FILE the same rows are also written as machine-readable JSON
// (one object per experiment), so plots and regression checks can consume
// the results without scraping the text tables.
//
// -metrics FILE runs the telemetry metrics ladder (the capability ladder on
// a small smoke configuration with a telemetry recorder attached) and writes
// the combined metrics report (results/METRICS.json). -matrix FILE runs the
// feature-cost matrix and writes its report (results/MATRIX.json). Each of
// them selects its own experiment, so they cannot be combined with each
// other or with a different -experiment.
//
// -parallel N runs the simulation engine's deferred payloads on N worker
// goroutines (0 = sequential; results are bit-identical either way).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/nodeaware/stencil/internal/figures"
	"github.com/nodeaware/stencil/internal/jobspec"
	"github.com/nodeaware/stencil/internal/telemetry"
)

func main() { jobspec.Main(run) }

// benchExperiment is one experiment's rows in the -json output.
type benchExperiment struct {
	Name string        `json:"name"`
	Rows []figures.Row `json:"rows"`
}

// benchReport is the top-level -json document (BENCH.json).
type benchReport struct {
	Tool        string            `json:"tool"`
	MaxNodes    int               `json:"max_nodes"`
	Iters       int               `json:"iters"`
	Experiments []benchExperiment `json:"experiments"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stencilbench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "which figure to regenerate (table1, fig3, fig11, fig12a, fig12b, fig12c, fig13, overlap, metrics, matrix, all)")
	maxNodes := fs.Int("maxnodes", 32, "largest node count for scaling experiments (paper: 256)")
	iters := fs.Int("iters", 3, "exchange iterations per configuration (paper: 30)")
	jsonPath := fs.String("json", "", "also write the rows as JSON to this file (e.g. results/BENCH.json)")
	metricsPath := fs.String("metrics", "", "run the metrics ladder and write its telemetry report to this file (e.g. results/METRICS.json)")
	matrixPath := fs.String("matrix", "", "run the feature-cost matrix and write its report to this file (e.g. results/MATRIX.json)")
	parallel := fs.Int("parallel", 0, "payload worker goroutines for the simulation engine (0 = sequential; results are bit-identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	figures.Workers = *parallel

	// -metrics and -matrix each select their experiment. Reject any other
	// selection instead of silently running one and dropping the other.
	if *metricsPath != "" && *matrixPath != "" {
		return fmt.Errorf("-metrics and -matrix run different experiments; pass one of them")
	}
	experimentSet := false
	fs.Visit(func(f *flag.Flag) { experimentSet = experimentSet || f.Name == "experiment" })
	for _, sel := range []struct{ name, path string }{{"metrics", *metricsPath}, {"matrix", *matrixPath}} {
		if sel.path == "" {
			continue
		}
		if experimentSet && *experiment != sel.name {
			return fmt.Errorf("-%s runs the %s experiment; it conflicts with -experiment %s", sel.name, sel.name, *experiment)
		}
		*experiment = sel.name
	}

	var metricsReport *telemetry.Report
	var matrixReport *figures.MatrixReport
	runners := map[string]func() ([]figures.Row, error){
		"metrics": func() ([]figures.Row, error) {
			rows, rep, err := figures.MetricsLadder(*iters)
			metricsReport = rep
			return rows, err
		},
		"matrix": func() ([]figures.Row, error) {
			rows, rep, err := figures.Matrix(*iters)
			matrixReport = rep
			return rows, err
		},
		"table1":  func() ([]figures.Row, error) { return figures.TableI(), nil },
		"fig3":    func() ([]figures.Row, error) { return figures.Fig3(), nil },
		"fig11":   func() ([]figures.Row, error) { return figures.Fig11(*iters) },
		"fig12a":  func() ([]figures.Row, error) { return figures.Fig12a(*iters) },
		"fig12b":  func() ([]figures.Row, error) { return figures.Fig12b(*maxNodes, *iters) },
		"fig12c":  func() ([]figures.Row, error) { return figures.Fig12c(*maxNodes, *iters) },
		"fig13":   func() ([]figures.Row, error) { return figures.Fig13(*maxNodes, *iters) },
		"overlap": func() ([]figures.Row, error) { return figures.Overlap(*iters) },
	}
	order := []string{"table1", "fig3", "fig11", "fig12a", "fig12b", "fig12c", "fig13", "overlap"}

	which := order
	if *experiment != "all" {
		if _, ok := runners[*experiment]; !ok {
			return fmt.Errorf("unknown experiment %q", *experiment)
		}
		which = []string{*experiment}
	}

	report := benchReport{Tool: "stencilbench", MaxNodes: *maxNodes, Iters: *iters}
	for _, name := range which {
		fmt.Fprintf(out, "== %s ==\n", name)
		rows, err := runners[name]()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, r := range rows {
			fmt.Fprintln(out, r)
		}
		fmt.Fprintln(out)
		report.Experiments = append(report.Experiments, benchExperiment{Name: name, Rows: rows})
	}

	for _, w := range []struct {
		path, what string
		doc        any
	}{
		{*jsonPath, "JSON report", report},
		{*metricsPath, "metrics report", metricsReport},
		{*matrixPath, "matrix report", matrixReport},
	} {
		if w.path == "" {
			continue
		}
		if err := writeJSON(w.path, w.doc); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s written to %s\n", w.what, w.path)
	}
	return nil
}

// writeJSON writes v as indented JSON to path. It returns the first error of
// create, encode and close, so a short write of a golden fails the command.
func writeJSON(path string, v any) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
