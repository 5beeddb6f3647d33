// Command telemetry digests an NDJSON event log (faultsim -events, or any
// telemetry.Recorder.WriteEvents output) into a human-readable summary:
//
//	telemetry -events run.ndjson [-top N]
//
// printed as a per-phase time breakdown (from span records), the top-N
// hottest links by integrated utilization (from link samples), and a method
// ledger: the setup-time selection followed by every fault and adaptation in
// virtual-time order.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("telemetry", flag.ContinueOnError)
	events := fs.String("events", "", "NDJSON event log to summarize")
	top := fs.Int("top", 10, "how many hottest links to list")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *events == "" {
		return fmt.Errorf("nothing to do: pass -events FILE")
	}
	return reportMode(out, *events, *top)
}

// event is one parsed NDJSON line; Extra holds the kind-specific fields.
type event struct {
	T     float64
	Kind  string
	Extra map[string]any
}

func readEvents(path string) ([]event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var evs []event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		m := make(map[string]any)
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		ev := event{Extra: m}
		if t, ok := m["t"].(float64); ok {
			ev.T = t
		}
		if k, ok := m["kind"].(string); ok {
			ev.Kind = k
		}
		evs = append(evs, ev)
	}
	return evs, sc.Err()
}

func str(m map[string]any, k string) string {
	s, _ := m[k].(string)
	return s
}

func num(m map[string]any, k string) float64 {
	v, _ := m[k].(float64)
	return v
}

func reportMode(out io.Writer, path string, top int) error {
	evs, err := readEvents(path)
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		return fmt.Errorf("%s: no events", path)
	}
	printPhases(out, evs)
	printHotLinks(out, evs, top)
	printMethodLedger(out, evs)
	return nil
}

// printPhases aggregates span records by name: count and total virtual time.
func printPhases(out io.Writer, evs []event) {
	type agg struct {
		count int
		total float64
	}
	phases := make(map[string]*agg)
	var names []string
	for _, ev := range evs {
		if ev.Kind != "span" {
			continue
		}
		name := str(ev.Extra, "name")
		a, ok := phases[name]
		if !ok {
			a = &agg{}
			phases[name] = a
			names = append(names, name)
		}
		a.count++
		a.total += num(ev.Extra, "dur")
	}
	fmt.Fprintf(out, "per-phase breakdown (virtual time):\n")
	if len(names) == 0 {
		fmt.Fprintf(out, "  (no span records)\n\n")
		return
	}
	sort.Slice(names, func(i, j int) bool {
		if phases[names[i]].total != phases[names[j]].total {
			return phases[names[i]].total > phases[names[j]].total
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(out, "  %-24s %8s %14s %14s\n", "phase", "count", "total ms", "mean ms")
	for _, n := range names {
		a := phases[n]
		fmt.Fprintf(out, "  %-24s %8d %14.3f %14.3f\n",
			n, a.count, a.total*1e3, a.total/float64(a.count)*1e3)
	}
	fmt.Fprintln(out)
}

// printHotLinks integrates each link's utilization step function over the
// sampled window and ranks by busy-seconds (∫ util dt).
func printHotLinks(out io.Writer, evs []event, top int) {
	type linkAgg struct {
		lastT, lastV float64
		started      bool
		busy         float64
		peak         float64
		samples      int
	}
	links := make(map[string]*linkAgg)
	var names []string
	for _, ev := range evs {
		if ev.Kind != "link" {
			continue
		}
		name := str(ev.Extra, "link")
		util := num(ev.Extra, "util")
		a, ok := links[name]
		if !ok {
			a = &linkAgg{}
			links[name] = a
			names = append(names, name)
		}
		if a.started {
			a.busy += a.lastV * (ev.T - a.lastT)
		}
		a.started = true
		a.lastT, a.lastV = ev.T, util
		if util > a.peak {
			a.peak = util
		}
		a.samples++
	}
	fmt.Fprintf(out, "hottest links (by integrated utilization):\n")
	if len(names) == 0 {
		fmt.Fprintf(out, "  (no link samples; the recorder may have LinkEvents disabled)\n\n")
		return
	}
	sort.Slice(names, func(i, j int) bool {
		if links[names[i]].busy != links[names[j]].busy {
			return links[names[i]].busy > links[names[j]].busy
		}
		return names[i] < names[j]
	})
	if top > len(names) {
		top = len(names)
	}
	fmt.Fprintf(out, "  %-28s %14s %10s %8s\n", "link", "busy ms", "peak util", "samples")
	for _, n := range names[:top] {
		a := links[n]
		fmt.Fprintf(out, "  %-28s %14.3f %10.2f %8d\n", n, a.busy*1e3, a.peak, a.samples)
	}
	if top < len(names) {
		fmt.Fprintf(out, "  ... and %d more\n", len(names)-top)
	}
	fmt.Fprintln(out)
}

// printMethodLedger reconstructs the method story: the setup-time selection
// from "plan" events, then every fault and adaptation in virtual-time order,
// and the resulting final per-method counts.
func printMethodLedger(out io.Writer, evs []event) {
	counts := make(map[string]int)
	planMethod := make(map[int]string)
	for _, ev := range evs {
		if ev.Kind != "plan" {
			continue
		}
		m := str(ev.Extra, "method")
		counts[m]++
		planMethod[int(num(ev.Extra, "plan"))] = m
	}
	fmt.Fprintf(out, "method ledger:\n")
	if len(counts) == 0 {
		fmt.Fprintf(out, "  (no plan records)\n")
		return
	}
	var methods []string
	for m := range counts {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	fmt.Fprintf(out, "  setup selection:")
	for _, m := range methods {
		fmt.Fprintf(out, " %s=%d", m, counts[m])
	}
	fmt.Fprintln(out)

	flips := 0
	for _, ev := range evs {
		switch ev.Kind {
		case "fault":
			fmt.Fprintf(out, "  t=%-12.6g fault %-14s %s\n",
				ev.T, str(ev.Extra, "fault"), str(ev.Extra, "desc"))
		case "adapt":
			reason := str(ev.Extra, "reason")
			from, to := str(ev.Extra, "from"), str(ev.Extra, "to")
			if from == "" && to == "" {
				fmt.Fprintf(out, "  t=%-12.6g adapt %s\n", ev.T, reason)
				continue
			}
			flips++
			counts[from]--
			counts[to]++
			planMethod[int(num(ev.Extra, "plan"))] = to
			fmt.Fprintf(out, "  t=%-12.6g adapt plan %-4d %s -> %s (%s)\n",
				ev.T, int(num(ev.Extra, "plan")), from, to, reason)
		case "retry":
			fmt.Fprintf(out, "  t=%-12.6g retry %s attempt %d\n",
				ev.T, str(ev.Extra, "name"), int(num(ev.Extra, "attempt")))
		}
	}
	methods = methods[:0]
	for m, c := range counts {
		if c != 0 {
			methods = append(methods, m)
		}
	}
	sort.Strings(methods)
	fmt.Fprintf(out, "  final selection: ")
	for i, m := range methods {
		if i > 0 {
			fmt.Fprint(out, " ")
		}
		fmt.Fprintf(out, "%s=%d", m, counts[m])
	}
	fmt.Fprintf(out, "  (%d method flips)\n", flips)
}
