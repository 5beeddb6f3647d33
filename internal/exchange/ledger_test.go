package exchange

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/nodeaware/stencil/internal/part"
	"github.com/nodeaware/stencil/internal/sim"
	"github.com/nodeaware/stencil/internal/telemetry"
)

// ledgerOpts is a small configuration with enough features on that every
// ledger dimension (reliable, verify, recovery, adapt, baseline) accrues
// attribution during the run.
func ledgerOpts(workers int) Options {
	return Options{
		Nodes:           2,
		RanksPerNode:    2,
		Domain:          part.Dim3{X: 16, Y: 16, Z: 16},
		Radius:          1,
		Quantities:      1,
		ElemSize:        4,
		Caps:            CapsAll(),
		NodeAware:       true,
		RealData:        true,
		Workers:         workers,
		Reliable:        true,
		VerifyExchange:  true,
		CheckpointEvery: 2,
		Adaptive:        true,
	}
}

// ledgerOutputs captures every exporter's bytes from one ledgered run.
type ledgerOutputs struct {
	virt     sim.Time
	prom     []byte // Prometheus exposition text
	json     []byte // full Snapshot JSON
	events   []byte // NDJSON event log
	perfetto []byte // Chrome trace-event JSON of the op timeline and link tracks
	ledger   []telemetry.LedgerEntry
}

func runLedgered(t *testing.T, workers int) ledgerOutputs {
	t.Helper()
	opts := ledgerOpts(workers)
	tel := telemetry.New()
	opts.Telemetry = tel
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	fillGlobal(e)
	e.Run(4)

	out := ledgerOutputs{virt: e.Eng.Now(), ledger: tel.Ledger()}
	var buf bytes.Buffer
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out.prom = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := tel.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.json = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := tel.WriteEvents(&buf); err != nil {
		t.Fatal(err)
	}
	out.events = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := tel.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out.perfetto = append([]byte(nil), buf.Bytes()...)
	return out
}

// TestLedgerExportByteIdentity pins the ledger's determinism contract: with
// per-feature attribution enabled, every exporter (Prometheus, JSON
// snapshot, NDJSON events, Perfetto op trace) emits byte-identical output
// across reruns and across sequential vs. parallel payload execution, and
// the ledger itself is reproduced entry for entry.
func TestLedgerExportByteIdentity(t *testing.T) {
	ref := runLedgered(t, 0)
	for _, run := range []struct {
		label   string
		workers int
	}{
		{"rerun/workers=0", 0},
		{"workers=4", 4},
	} {
		got := runLedgered(t, run.workers)
		if got.virt != ref.virt {
			t.Errorf("%s: virtual time %v, want %v", run.label, got.virt, ref.virt)
		}
		if !bytes.Equal(got.prom, ref.prom) {
			t.Errorf("%s: Prometheus output differs", run.label)
		}
		if !bytes.Equal(got.json, ref.json) {
			t.Errorf("%s: JSON snapshot differs", run.label)
		}
		if !bytes.Equal(got.events, ref.events) {
			t.Errorf("%s: NDJSON event log differs", run.label)
		}
		if !bytes.Equal(got.perfetto, ref.perfetto) {
			t.Errorf("%s: Perfetto trace differs", run.label)
		}
		if !reflect.DeepEqual(got.ledger, ref.ledger) {
			t.Errorf("%s: ledger differs:\n  %+v\n  %+v", run.label, got.ledger, ref.ledger)
		}
	}

	// The run must actually have fed the ledger and the trace, or identity
	// is vacuous.
	for _, ph := range []string{`"ph":"X"`, `"ph":"C"`} {
		if !bytes.Contains(ref.perfetto, []byte(ph)) {
			t.Errorf("Perfetto trace has no %s events", ph)
		}
	}
	byFeat := make(map[telemetry.Feature]telemetry.LedgerEntry)
	for _, e := range ref.ledger {
		byFeat[e.Feature] = e
	}
	for _, f := range []telemetry.Feature{
		telemetry.FeatureBaseline, telemetry.FeatureReliable,
		telemetry.FeatureVerify, telemetry.FeatureRecovery,
	} {
		e := byFeat[f]
		if e.Spans == 0 && e.Events == 0 && e.VirtualSeconds == 0 && e.HostAllocs == 0 {
			t.Errorf("feature %s accrued nothing; the configuration no longer exercises it", f)
		}
	}
	if byFeat[telemetry.FeatureSelf].HostAllocBytes == 0 {
		t.Error("telemetry-self entry reports zero retained bytes")
	}
}

// TestLedgerPassive pins the other half of the contract: attaching the
// recorder (and with it the whole feature ledger) must not move simulated
// time by a single bit relative to an unrecorded run.
func TestLedgerPassive(t *testing.T) {
	run := func(withTel bool) (sim.Time, []sim.Time) {
		opts := ledgerOpts(0)
		if withTel {
			opts.Telemetry = telemetry.New()
		}
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		fillGlobal(e)
		st := e.Run(4)
		return e.Eng.Now(), st.Iterations
	}
	virtOn, itersOn := run(true)
	virtOff, itersOff := run(false)
	if virtOn != virtOff {
		t.Fatalf("recorder changed final virtual time: %v with vs %v without", virtOn, virtOff)
	}
	if !reflect.DeepEqual(itersOn, itersOff) {
		t.Fatalf("recorder changed iteration times:\n  on:  %v\n  off: %v", itersOn, itersOff)
	}
}
