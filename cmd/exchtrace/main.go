// Command exchtrace reproduces Fig 9: a timeline of the overlapped
// operations during one halo exchange of a 512^3-per-GPU domain with four
// single-precision quantities on a single rank driving two GPUs.
//
// By default it prints an ASCII Gantt chart of every simulated GPU operation
// the telemetry recorder logged, grouped by device and stream, plus overlap
// statistics. With -chrome FILE it also writes the recorder's Chrome
// trace-event JSON for chrome://tracing / Perfetto, including per-link
// utilization counter tracks sampled on every flow-network rebalance.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	stencil "github.com/nodeaware/stencil"
	"github.com/nodeaware/stencil/internal/machine"
	"github.com/nodeaware/stencil/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("exchtrace", flag.ContinueOnError)
	width := fs.Int("width", 100, "chart width in characters")
	ranks := fs.Int("ranks", 1, "ranks on the node")
	edge := fs.Int("edge", 512, "per-GPU cubic subdomain edge (Fig 9: 512)")
	chrome := fs.String("chrome", "", "also write Chrome trace-event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Fig 9's setup: one rank controlling two GPUs; the node has one GPU per
	// socket so both intra- and cross-socket traffic appear.
	nodeCfg := machine.NodeConfig{Sockets: 2, GPUsPerSocket: 1}
	tel := stencil.NewTelemetry()
	cfg := stencil.Config{
		Nodes:        1,
		RanksPerNode: *ranks,
		Domain:       stencil.Dim3{X: 2 * *edge, Y: *edge, Z: *edge}, // edge^3 per GPU
		Radius:       2,
		Quantities:   4,
		Capabilities: stencil.CapsAll(),
		NodeConfig:   &nodeCfg,
		Telemetry:    tel,
	}
	dd, err := stencil.New(cfg)
	if err != nil {
		return err
	}
	stats := dd.Exchange(1)

	tl := trace.New(tel.Ops())
	ts := tl.ComputeStats()

	fmt.Fprintf(out, "one exchange: 1n/%dr/2g, %d^3 per GPU, 4 SP quantities\n", *ranks, *edge)
	fmt.Fprintf(out, "exchange time %.3f ms; %d GPU operations on %d streams across %d devices\n",
		stats.Min()*1e3, ts.Ops, ts.Streams, ts.Devices)
	fmt.Fprintf(out, "GPU busy time %.3f ms over a %.3f ms span: overlap factor %.2fx\n\n",
		ts.BusyTime*1e3, ts.Span*1e3, ts.Overlap)
	fmt.Fprintln(out, "K=pack/unpack/self kernel  P=peer copy  v=D2H stage  ^=H2D stage")
	tl.RenderASCII(out, *width)

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			return err
		}
		err = tel.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		links := 0
		for _, tr := range tel.Tracks() {
			if tr.IsLink() {
				links++
			}
		}
		fmt.Fprintf(out, "\nChrome trace written to %s (%d link utilization counter tracks; open in chrome://tracing or ui.perfetto.dev)\n",
			*chrome, links)
	}
	return nil
}
