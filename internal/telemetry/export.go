package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// SchemaVersion identifies the snapshot document layout. Bump it when the
// Snapshot shape changes incompatibly.
const SchemaVersion = "stencil-metrics/1"

// Snapshot is the exportable state of a Recorder: every metric sorted by
// (name, labels), per-link statistics derived from the utilization tracks,
// and per-name span totals. It contains only virtual-time quantities — no
// wall-clock values — so identical runs marshal to identical bytes.
type Snapshot struct {
	Schema     string       `json:"schema"`
	Counters   []Metric     `json:"counters"`
	Gauges     []Metric     `json:"gauges"`
	Histograms []HistMetric `json:"histograms"`
	Links      []LinkStat   `json:"links"`
	Spans      []SpanStat   `json:"spans"`
	Events     int          `json:"events"`
}

// Metric is one exported counter or gauge sample.
type Metric struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// HistMetric is one exported histogram.
type HistMetric struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Buckets []float64         `json:"buckets"`
	Counts  []uint64          `json:"counts"`
	Sum     float64           `json:"sum"`
	Count   uint64            `json:"count"`
}

// LinkStat summarizes one link's utilization track: BusySeconds is
// ∫ utilization dt over the run (1.0 would mean saturated for one virtual
// second), Peak the highest sampled utilization.
type LinkStat struct {
	Name        string  `json:"name"`
	BusySeconds float64 `json:"busy_seconds"`
	Peak        float64 `json:"peak_util"`
	Samples     int     `json:"samples"`
}

// SpanStat aggregates completed spans by name.
type SpanStat struct {
	Name         string  `json:"name"`
	Count        int     `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
}

func labelMap(ls []Label) map[string]string {
	if len(ls) == 0 {
		return nil
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot exports the recorder's current state.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{Schema: SchemaVersion, Events: len(r.events)}

	keys := func(m map[string]metricMeta, in func(string) bool) []string {
		var ks []string
		for k := range m {
			if in(k) {
				ks = append(ks, k)
			}
		}
		sort.Strings(ks)
		return ks
	}
	for _, k := range keys(r.metas, func(k string) bool { _, ok := r.counters[k]; return ok }) {
		meta := r.metas[k]
		s.Counters = append(s.Counters, Metric{Name: meta.name, Labels: labelMap(meta.labels), Value: r.counters[k].v})
	}
	for _, k := range keys(r.metas, func(k string) bool { _, ok := r.gauges[k]; return ok }) {
		meta := r.metas[k]
		s.Gauges = append(s.Gauges, Metric{Name: meta.name, Labels: labelMap(meta.labels), Value: r.gauges[k].v})
	}
	for _, k := range keys(r.metas, func(k string) bool { _, ok := r.hists[k]; return ok }) {
		meta := r.metas[k]
		h := r.hists[k]
		s.Histograms = append(s.Histograms, HistMetric{
			Name: meta.name, Labels: labelMap(meta.labels),
			Buckets: h.buckets, Counts: h.counts, Sum: h.sum, Count: h.n,
		})
	}
	for _, tr := range r.Tracks() {
		if !tr.isLink {
			continue
		}
		s.Links = append(s.Links, LinkStat{
			Name: tr.Name, BusySeconds: tr.integral, Peak: tr.peak, Samples: tr.samples,
		})
	}
	agg := make(map[string]*SpanStat)
	var names []string
	for _, sp := range r.spans {
		st, ok := agg[sp.Name]
		if !ok {
			st = &SpanStat{Name: sp.Name}
			agg[sp.Name] = st
			names = append(names, sp.Name)
		}
		st.Count++
		st.TotalSeconds += sp.End - sp.Start
	}
	sort.Strings(names)
	for _, n := range names {
		s.Spans = append(s.Spans, *agg[n])
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON (the METRICS.json format).
func (r *Recorder) WriteJSON(w io.Writer) error {
	return writeJSON(w, r.Snapshot())
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteEvents writes the event log as NDJSON: one JSON object per line, keys
// in a fixed order ("t", "kind", then the record's fields in append order).
func (r *Recorder) WriteEvents(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := range r.events {
		if err := writeEvent(bw, &r.events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeEvent hand-encodes one record so field order is stable (encoding/json
// on a map would sort keys; on a struct it cannot carry per-kind fields).
func writeEvent(w *bufio.Writer, e *Event) error {
	w.WriteString(`{"t":`)
	if err := writeJSONValue(w, e.T); err != nil {
		return err
	}
	w.WriteString(`,"kind":`)
	if err := writeJSONValue(w, e.Kind); err != nil {
		return err
	}
	for _, f := range e.Fields {
		w.WriteByte(',')
		if err := writeJSONValue(w, f.Key); err != nil {
			return err
		}
		w.WriteByte(':')
		if err := writeJSONValue(w, f.Value); err != nil {
			return err
		}
	}
	w.WriteString("}\n")
	return nil
}

func writeJSONValue(w *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("telemetry: event value %v: %w", v, err)
	}
	_, err = w.Write(b)
	return err
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format. Series are grouped into metric families: each family name gets
// exactly one # HELP and one # TYPE header regardless of how many labeled
// series share it (repeating TYPE per series is invalid exposition format).
// Histograms expand to the conventional _bucket/_sum/_count series; link
// tracks export as link_busy_seconds and link_peak_util.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	s := r.Snapshot()
	writeScalarFamilies(bw, s.Counters, "counter")
	writeScalarFamilies(bw, s.Gauges, "gauge")

	histNames, histsByName := groupHistograms(s.Histograms)
	for _, name := range histNames {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s histogram\n", name, promHelp(name), name)
		for _, h := range histsByName[name] {
			cum := uint64(0)
			for i, ub := range h.Buckets {
				cum += h.Counts[i]
				fmt.Fprintf(bw, "%s_bucket%s %d\n", h.Name, promLabels(h.Labels, "le", promFloat(ub)), cum)
			}
			cum += h.Counts[len(h.Buckets)]
			fmt.Fprintf(bw, "%s_bucket%s %d\n", h.Name, promLabels(h.Labels, "le", "+Inf"), cum)
			fmt.Fprintf(bw, "%s_sum%s %s\n", h.Name, promLabels(h.Labels, "", ""), promFloat(h.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", h.Name, promLabels(h.Labels, "", ""), h.Count)
		}
	}
	if len(s.Links) > 0 {
		fmt.Fprintf(bw, "# HELP link_busy_seconds %s\n# TYPE link_busy_seconds counter\n", promHelp("link_busy_seconds"))
		for _, l := range s.Links {
			fmt.Fprintf(bw, "link_busy_seconds{link=%q} %s\n", l.Name, promFloat(l.BusySeconds))
		}
		fmt.Fprintf(bw, "# HELP link_peak_util %s\n# TYPE link_peak_util gauge\n", promHelp("link_peak_util"))
		for _, l := range s.Links {
			fmt.Fprintf(bw, "link_peak_util{link=%q} %s\n", l.Name, promFloat(l.Peak))
		}
	}
	return bw.Flush()
}

// writeScalarFamilies groups counter or gauge series by family name and
// emits one HELP/TYPE header per family. Snapshot orders series by
// canonical key, which keeps label order stable within a family but can
// interleave families when one name prefixes another — so grouping is by
// explicit name, families emitted in sorted-name order.
func writeScalarFamilies(bw *bufio.Writer, metrics []Metric, typ string) {
	byName := make(map[string][]Metric)
	var names []string
	for _, m := range metrics {
		if _, ok := byName[m.Name]; !ok {
			names = append(names, m.Name)
		}
		byName[m.Name] = append(byName[m.Name], m)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", name, promHelp(name), name, typ)
		for _, m := range byName[name] {
			fmt.Fprintf(bw, "%s%s %s\n", m.Name, promLabels(m.Labels, "", ""), promFloat(m.Value))
		}
	}
}

func groupHistograms(hists []HistMetric) ([]string, map[string][]HistMetric) {
	byName := make(map[string][]HistMetric)
	var names []string
	for _, h := range hists {
		if _, ok := byName[h.Name]; !ok {
			names = append(names, h.Name)
		}
		byName[h.Name] = append(byName[h.Name], h)
	}
	sort.Strings(names)
	return names, byName
}

// promHelpText maps known metric families to their HELP line. Families not
// listed fall back to a suffix-derived generic description in promHelp.
var promHelpText = map[string]string{
	"flownet_rebalances_total":   "waterfill rebalance passes over flow-network components",
	"flownet_rebalance_links":    "links touched per waterfill rebalance pass",
	"flownet_rebalance_flows":    "flows touched per waterfill rebalance pass",
	"cudart_ops_total":           "completed CUDA ops by kind",
	"cudart_op_bytes_total":      "bytes moved by CUDA ops by kind",
	"cudart_op_seconds":          "virtual duration of CUDA ops by kind",
	"mpi_retries_total":          "timed-out-and-aborted send attempts",
	"mpi_retry_exhausted_total":  "sends whose retry budget ran out",
	"mpi_protocol_total":         "reliable-delivery protocol actions by kind",
	"link_quarantine_total":      "link health-gate transitions by action",
	"verify_reexchanges_total":   "quadrants re-exchanged by end-to-end halo verification",
	"faults_total":               "applied fault actions by kind",
	"exchange_iterations_total":  "completed halo-exchange iterations",
	"exchange_iteration_seconds": "virtual duration of one halo-exchange iteration",
	"exchange_plans":             "cached exchange plans by method",
	"link_busy_seconds":          "integral of link utilization over virtual time",
	"link_peak_util":             "highest sampled link utilization",
}

// promHelp returns the HELP text for a metric family, falling back to a
// generic description derived from the conventional name suffix.
func promHelp(name string) string {
	if h, ok := promHelpText[name]; ok {
		return h
	}
	switch {
	case strings.HasSuffix(name, "_total"):
		return "monotonic event counter"
	case strings.HasSuffix(name, "_seconds"):
		return "duration in seconds"
	case strings.HasSuffix(name, "_bytes"):
		return "size in bytes"
	}
	return "simulation metric"
}

// promFloat renders a float the way Go's JSON encoder does, so text and JSON
// exports agree digit-for-digit.
func promFloat(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// promLabels renders a sorted label set, optionally with one extra pair
// appended (the histogram "le" bound).
func promLabels(labels map[string]string, extraK, extraV string) string {
	if len(labels) == 0 && extraK == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	if extraK != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraK, extraV)
	}
	b.WriteByte('}')
	return b.String()
}

// Report is the top-level METRICS.json document: one snapshot per run of a
// deterministic configuration ladder.
type Report struct {
	Schema string      `json:"schema"`
	Tool   string      `json:"tool"`
	Iters  int         `json:"iters,omitempty"`
	Runs   []ReportRun `json:"runs"`
}

// ReportRun is one configuration's snapshot.
type ReportRun struct {
	Config   string   `json:"config"`
	Caps     string   `json:"caps,omitempty"`
	Snapshot Snapshot `json:"snapshot"`
}

// WriteReport writes a report as indented JSON.
func WriteReport(w io.Writer, rep *Report) error { return writeJSON(w, rep) }

// ReadReport parses a report file.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
