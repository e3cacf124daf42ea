package wsrs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenEnergy pins the dynamic energy table ("Table 1 in
// motion") for two benchmarks across the full Figure 4 configuration
// set. Activity counts are integers from a deterministic simulation
// and the energy prices are closed-form, so the table is
// byte-reproducible.
func TestGoldenEnergy(t *testing.T) {
	cells, err := RunEnergy(nil, []string{"gzip", "wupwise"}, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderEnergy(&buf, cells)
	checkGolden(t, "energy.golden", buf.Bytes())
}

// TestEnergyFacadeHalving checks the acceptance criterion end to end
// through the public API: on the same kernel, the 4-cluster WSRS
// machine's monitored wake-up and bypass events per instruction are
// about half the conventional machine's, and its total dynamic energy
// stack is strictly cheaper.
func TestEnergyFacadeHalving(t *testing.T) {
	cells, err := RunEnergy([]ConfigName{ConfRR256, ConfWSRSRC512}, []string{"gzip"}, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	conv, wsrs := cells[0].Stack, cells[1].Stack
	if cells[0].Config != ConfRR256 {
		conv, wsrs = wsrs, conv
	}
	if conv.Insts == 0 || wsrs.Insts == 0 {
		t.Fatal("energy stacks missing instruction counts (telemetry not enabled?)")
	}
	convRate := float64(conv.WakeupEvents) / float64(conv.Insts)
	wsrsRate := float64(wsrs.WakeupEvents) / float64(wsrs.Insts)
	ratio := wsrsRate / convRate
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("WSRS/conventional wake-up events per inst = %.3f, want ~0.5", ratio)
	}
	if wsrs.TotalPJPerInst() >= conv.TotalPJPerInst() {
		t.Errorf("WSRS total %.1f pJ/inst not cheaper than conventional %.1f",
			wsrs.TotalPJPerInst(), conv.TotalPJPerInst())
	}
}

// TestGridTelemetryObserver drives a small grid through the
// batteries-included observer and checks each of its outputs: the
// progress stream, the JSON manifest and the host Chrome trace.
func TestGridTelemetryObserver(t *testing.T) {
	gt := NewGridTelemetry()
	var progress bytes.Buffer
	gt.Progress = &progress
	gt.Label = "test-grid"
	gt.Meta = map[string]string{"suite": "observer"}

	opts := goldenOpts
	opts.Telemetry = true
	opts.Observer = gt
	cells := []GridCell{
		{Kernel: "gzip", Config: ConfRR256},
		{Kernel: "gzip", Config: ConfWSRSRC512},
		{Kernel: "wupwise", Config: ConfRR256},
	}
	if _, err := RunGrid(cells, opts, 1); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(progress.String()), "\n")
	if len(lines) != len(cells) {
		t.Errorf("progress wrote %d lines, want %d:\n%s", len(lines), len(cells), progress.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, "IPC") || !strings.Contains(l, "ms") {
			t.Errorf("progress line missing IPC or wall time: %q", l)
		}
	}

	m := gt.BuildManifest()
	if m.Label != "test-grid" || m.Meta["suite"] != "observer" {
		t.Errorf("manifest label/meta not propagated: %+v", m)
	}
	if m.CellsTotal != 3 || m.CellsFailed != 0 {
		t.Errorf("manifest cells_total=%d failed=%d, want 3/0", m.CellsTotal, m.CellsFailed)
	}
	var insts uint64
	for _, c := range m.Cells {
		insts += c.Insts
	}
	if m.Insts == 0 || m.Insts != insts {
		t.Errorf("manifest insts_total=%d, want the per-cell sum %d", m.Insts, insts)
	}
	if len(m.ConfigDigest) != 64 {
		t.Errorf("config digest %q is not a sha256 hex string", m.ConfigDigest)
	}
	if m.Activity == nil || m.Activity["wakeup_events"] == 0 {
		t.Errorf("manifest missing aggregated activity: %v", m.Activity)
	}
	for i, c := range m.Cells {
		if c.Index != i {
			t.Errorf("manifest cells not sorted by index: %v", m.Cells)
			break
		}
		if c.IPC <= 0 || c.Error != "" {
			t.Errorf("cell %d bad outcome: %+v", i, c)
		}
	}
	// gzip runs twice: only its first cell is a cold functional
	// simulation, the second reuses the memoized trace.
	if !m.Cells[0].ColdTrace || m.Cells[1].ColdTrace || !m.Cells[2].ColdTrace {
		t.Errorf("cold-trace marking wrong: %+v", m.Cells)
	}
	var manifestJSON bytes.Buffer
	if err := gt.WriteManifest(&manifestJSON); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(manifestJSON.Bytes(), &decoded); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}

	var traceJSON bytes.Buffer
	if err := gt.WriteHostTrace(&traceJSON); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceJSON.Bytes(), &tr); err != nil {
		t.Fatalf("host trace is not valid JSON: %v", err)
	}
	var slices, meta int
	for _, e := range tr.TraceEvents {
		switch e["ph"] {
		case "X":
			slices++
		case "M":
			meta++
		}
	}
	if slices != 3 || meta == 0 {
		t.Errorf("host trace has %d slices and %d metadata events, want 3 slices and >0 metadata", slices, meta)
	}
}

// TestManifestDigestStable checks that the config digest depends only
// on the cell identities: a serial and a parallel run of the same grid
// agree on it even though completion order differs.
func TestManifestDigestStable(t *testing.T) {
	digest := func(par int) string {
		gt := NewGridTelemetry()
		opts := goldenOpts
		opts.Observer = gt
		cells := []GridCell{
			{Kernel: "gzip", Config: ConfRR256},
			{Kernel: "gzip", Config: ConfWSRR384},
			{Kernel: "gzip", Config: ConfWSRSRC512},
			{Kernel: "wupwise", Config: ConfWSRSRC512},
		}
		if _, err := RunGrid(cells, opts, par); err != nil {
			t.Fatal(err)
		}
		return gt.BuildManifest().ConfigDigest
	}
	serial, parallel := digest(1), digest(4)
	if serial != parallel {
		t.Errorf("config digest differs between serial (%s) and parallel (%s) runs", serial, parallel)
	}
}

// TestGridTelemetryColdTraceAfterResume pins which cell the observer
// marks cold when a grid mixes restored and simulated cells. A cell
// restored from the result store never runs the functional simulator,
// so after a trace-cache reset the cold build belongs to the first
// simulated cell of the kernel — in the manifest, its grid.cell span
// and its progress line.
func TestGridTelemetryColdTraceAfterResume(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := goldenOpts
	opts.Checkpoint = filepath.Join(t.TempDir(), "grid.jsonl")
	if _, err := RunGrid([]GridCell{{Kernel: "gzip", Config: ConfRR256}}, opts, 1); err != nil {
		t.Fatal(err)
	}
	ResetTraceCache()

	gt := NewGridTelemetry()
	var progress bytes.Buffer
	gt.Progress = &progress
	opts.Observer = gt
	cells := []GridCell{
		{Kernel: "gzip", Config: ConfRR256},
		{Kernel: "gzip", Config: ConfWSRSRC512},
	}
	if _, err := RunGrid(cells, opts, 1); err != nil {
		t.Fatal(err)
	}
	if st := TraceStats(); st.Misses != 1 {
		t.Fatalf("trace cache ran funcsim %d times, want 1 (the simulated cell)", st.Misses)
	}
	m := gt.BuildManifest()
	if c := m.Cells[0]; !c.Resumed || c.ColdTrace {
		t.Errorf("restored cell: resumed=%v cold_trace=%v, want true/false", c.Resumed, c.ColdTrace)
	}
	if c := m.Cells[1]; c.Resumed || !c.ColdTrace {
		t.Errorf("simulated cell: resumed=%v cold_trace=%v, want false/true", c.Resumed, c.ColdTrace)
	}
	spans := gt.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d grid.cell spans, want 2", len(spans))
	}
	for _, sp := range spans {
		attrs := sp.JSON().Attrs
		if cold := attrs["cold_trace"] == true; cold != (attrs["cell"] == int64(1)) {
			t.Errorf("span for cell %v: cold_trace=%v", attrs["cell"], cold)
		}
	}
	lines := strings.Split(strings.TrimSpace(progress.String()), "\n")
	if len(lines) != 2 || !strings.HasSuffix(lines[0], "resumed") || !strings.HasSuffix(lines[1], "cold trace") {
		t.Errorf("progress lines do not show the resumed cell and the cold build:\n%s", progress.String())
	}
}

// TestManifestDigestMeta checks that the config digest covers the
// run-wide options recorded in Meta: the same cells under a different
// seed are a different run and must not share a digest.
func TestManifestDigestMeta(t *testing.T) {
	digest := func(seed int64) string {
		gt := NewGridTelemetry()
		gt.Meta = map[string]string{"warmup": "3000", "measure": "10000", "seed": fmt.Sprint(seed)}
		opts := goldenOpts
		opts.Seed = seed
		opts.Observer = gt
		if _, err := RunGrid([]GridCell{{Kernel: "gzip", Config: ConfWSRSRM512}}, opts, 1); err != nil {
			t.Fatal(err)
		}
		return gt.BuildManifest().ConfigDigest
	}
	if a, b := digest(1), digest(2); a == b {
		t.Errorf("runs at seed 1 and seed 2 share config digest %s", a)
	}
}

// BenchmarkCoreGridDispatch measures the worker-pool cost of pushing
// small cells through RunGrid over the memoized trace cache.
func BenchmarkCoreGridDispatch(b *testing.B) {
	cells := []GridCell{
		{Kernel: "gzip", Config: ConfRR256},
		{Kernel: "gzip", Config: ConfWSRR384},
		{Kernel: "gzip", Config: ConfWSRSRC512},
		{Kernel: "gzip", Config: ConfWSRSRM512},
	}
	opts := SimOpts{WarmupInsts: 500, MeasureInsts: 2000}
	if _, err := RunGrid(cells, opts, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunGrid(cells, opts, 0); err != nil {
			b.Fatal(err)
		}
	}
}
