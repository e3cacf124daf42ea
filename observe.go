package wsrs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"wsrs/internal/otrace"
	"wsrs/internal/telemetry"
)

// TraceObserver is the span-emitting GridObserver: one "grid.cell"
// span per cell, parented under the given context, recorded into the
// given recorder. wsrsd attaches one per simulate dispatch so the host
// RunGrid work shows up inside the job trace; GridTelemetry records
// its spans, and renders its host trace, through one as well.
type TraceObserver struct {
	rec    *otrace.Recorder
	parent otrace.Ctx

	mu     sync.Mutex
	starts map[int]int64
}

// NewTraceObserver builds the observer. A zero parent starts a fresh
// trace on first use.
func NewTraceObserver(rec *otrace.Recorder, parent otrace.Ctx) *TraceObserver {
	return &TraceObserver{rec: rec, parent: parent, starts: map[int]int64{}}
}

// CellStarted implements GridObserver.
func (t *TraceObserver) CellStarted(i int, cell GridCell, worker int) {
	now := otrace.Now()
	t.mu.Lock()
	t.starts[i] = now
	t.mu.Unlock()
}

// CellFinished implements GridObserver.
func (t *TraceObserver) CellFinished(i int, r GridResult) { t.finish(i, r, false) }

// finish records cell i's span; it is the one builder of every
// grid.cell span. A resumed cell is marked resumed, any other is
// marked cold_trace when it built its kernel's trace (cold); the two
// never occur together, so a span stays within otrace.MaxAttrs.
func (t *TraceObserver) finish(i int, r GridResult, cold bool) {
	end := otrace.Now()
	t.mu.Lock()
	start, ok := t.starts[i]
	delete(t.starts, i)
	t.mu.Unlock()
	if !ok {
		start = end
	}
	sp := t.rec.Make("grid.cell", t.parent, start, end)
	sp.SetStr("kernel", r.Cell.Kernel)
	sp.SetStr("config", string(r.Cell.Config))
	sp.SetInt("cell", int64(i))
	sp.SetInt("worker", int64(r.Worker))
	if r.Err != nil {
		sp.SetStr("error", r.Err.Error())
	} else {
		sp.SetInt("cycles", r.Result.Cycles)
	}
	if r.Resumed {
		sp.SetBool("resumed", true)
	} else if cold {
		sp.SetBool("cold_trace", true)
	}
	t.rec.Append(&sp)
}

// GridTelemetry is the batteries-included GridObserver: it turns
// RunGrid progress callbacks into
//
//   - optional one-line-per-cell progress output on Progress;
//   - a JSON run manifest (config digest, per-cell outcomes, instruction
//     totals, aggregate activity) via WriteManifest;
//   - one "grid.cell" span per cell (Spans, WriteSpans), and the
//     host-side Chrome trace of the worker pool rendered from those
//     spans (one track per worker, one slice per cell) via HostTrace.
//
// All methods are safe for concurrent use; RunGrid calls the observer
// from its worker goroutines.
type GridTelemetry struct {
	// Progress, when non-nil, receives one line per finished cell:
	// index, cell identity, IPC, wall time, and whether the kernel's
	// trace was already memoized (cached) or had to be built (cold).
	Progress io.Writer
	// Label names the run in the manifest (typically the experiment
	// flag value); optional.
	Label string
	// Meta carries the run-wide options into the manifest and its
	// config digest (wsrsbench records warmup, measure, seed and
	// kernels); optional.
	Meta map[string]string

	start time.Time
	spans *TraceObserver

	mu         sync.Mutex
	seenKernel map[string]bool
	cells      []ManifestCell
	activity   telemetry.Activity
	insts      uint64
}

// NewGridTelemetry builds a grid observer. Attach it via
// SimOpts.Observer.
func NewGridTelemetry() *GridTelemetry {
	rec := otrace.NewRecorder(0)
	return &GridTelemetry{
		start:      time.Now(),
		spans:      NewTraceObserver(rec, otrace.Ctx{Trace: rec.NewTrace()}),
		seenKernel: map[string]bool{},
	}
}

// CellStarted implements GridObserver.
func (g *GridTelemetry) CellStarted(i int, cell GridCell, worker int) {
	g.spans.CellStarted(i, cell, worker)
}

// CellFinished implements GridObserver. The first non-resumed cell of
// each kernel to finish is marked cold: it is the cell that ran the
// kernel's functional simulation (in a parallel grid, one of the cells
// that waited on it). A cell restored from the result store never
// touches the trace cache, so it is never cold.
func (g *GridTelemetry) CellFinished(i int, r GridResult) {
	g.mu.Lock()
	cold := !r.Resumed && !g.seenKernel[r.Cell.Kernel]
	if cold {
		g.seenKernel[r.Cell.Kernel] = true
	}
	mc := ManifestCell{
		Index: i, Kernel: r.Cell.Kernel, Config: string(r.Cell.Config),
		Seed: r.Cell.Seed, Policy: r.Cell.Policy,
		WallMs: float64(r.Wall.Microseconds()) / 1000,
		Worker: r.Worker, Resumed: r.Resumed, ColdTrace: cold,
	}
	if r.Err != nil {
		mc.Error = r.Err.Error()
	} else {
		mc.IPC = r.Result.IPC
		mc.Insts = r.Result.Insts
		mc.Cycles = r.Result.Cycles
	}
	g.cells = append(g.cells, mc)
	g.insts += r.Result.Insts
	if a := r.Result.Activity; a != nil {
		mergeActivity(&g.activity, a)
	}
	done := len(g.cells)
	g.mu.Unlock()
	g.spans.finish(i, r, cold)

	if g.Progress != nil {
		status := "cached trace"
		if cold {
			status = "cold trace"
		}
		if r.Resumed {
			status = "resumed"
		}
		line := fmt.Sprintf("[%d] %s/%s: IPC %.2f, %.1f ms, %s\n",
			done, r.Cell.Kernel, r.Cell.Config, r.Result.IPC,
			float64(r.Wall.Microseconds())/1000, status)
		if r.Err != nil {
			line = fmt.Sprintf("[%d] %s/%s: FAILED: %v\n", done, r.Cell.Kernel, r.Cell.Config, r.Err)
		}
		fmt.Fprint(g.Progress, line)
	}
}

// mergeActivity adds src's counts into dst (single-writer contexts:
// called under the observer mutex).
func mergeActivity(dst, src *telemetry.Activity) {
	for i := 0; i < telemetry.MaxDomains; i++ {
		dst.RegReads[i] += src.RegReads[i]
		dst.RegWrites[i] += src.RegWrites[i]
		dst.Wakeup[i] += src.Wakeup[i]
		dst.BypassDrives[i] += src.BypassDrives[i]
		dst.Renames[i] += src.Renames[i]
		dst.FreeListStalls[i] += src.FreeListStalls[i]
	}
	dst.BypassLocal += src.BypassLocal
	dst.BypassCross += src.BypassCross
	dst.Moves += src.Moves
}

// ManifestCell is one cell's outcome in the run manifest.
type ManifestCell struct {
	Index     int     `json:"index"`
	Kernel    string  `json:"kernel"`
	Config    string  `json:"config"`
	Seed      int64   `json:"seed,omitempty"`
	Policy    string  `json:"policy,omitempty"`
	IPC       float64 `json:"ipc,omitempty"`
	Insts     uint64  `json:"insts,omitempty"`
	Cycles    int64   `json:"cycles,omitempty"`
	WallMs    float64 `json:"wall_ms"`
	Worker    int     `json:"worker"`
	Resumed   bool    `json:"resumed,omitempty"`
	ColdTrace bool    `json:"cold_trace,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// Manifest is the JSON run record GridTelemetry writes after a grid:
// what ran (digest of the cell identities and run metadata), how it
// went per cell, and the instruction and activity totals.
type Manifest struct {
	Label        string            `json:"label,omitempty"`
	ConfigDigest string            `json:"config_digest"`
	StartTime    time.Time         `json:"start_time"`
	WallMs       float64           `json:"wall_ms"`
	CellsTotal   int               `json:"cells_total"`
	CellsFailed  int               `json:"cells_failed"`
	Insts        uint64            `json:"insts_total"`
	Meta         map[string]string `json:"meta,omitempty"`
	Activity     map[string]uint64 `json:"activity,omitempty"`
	Cells        []ManifestCell    `json:"cells"`
}

// BuildManifest assembles the manifest from everything observed so
// far. The config digest is the SHA-256 over the cell identities
// (kernel, config, seed, policy) in index order and the Meta entries
// in key order, so two runs of the same grid under the same run-wide
// options (wsrsbench records warmup, measure, seed and kernels in
// Meta) agree on it regardless of completion order or parallelism,
// and runs that differ in any of them do not.
func (g *GridTelemetry) BuildManifest() Manifest {
	g.mu.Lock()
	cells := append([]ManifestCell(nil), g.cells...)
	act := g.activity
	insts := g.insts
	g.mu.Unlock()
	sort.Slice(cells, func(i, j int) bool { return cells[i].Index < cells[j].Index })

	h := sha256.New()
	failed := 0
	for _, c := range cells {
		fmt.Fprintf(h, "%s|%s|%d|%s\n", c.Kernel, c.Config, c.Seed, c.Policy)
		if c.Error != "" {
			failed++
		}
	}
	keys := make([]string, 0, len(g.Meta))
	for k := range g.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "meta %q=%q\n", k, g.Meta[k])
	}
	m := Manifest{
		Label:        g.Label,
		ConfigDigest: hex.EncodeToString(h.Sum(nil)),
		StartTime:    g.start,
		WallMs:       float64(time.Since(g.start).Microseconds()) / 1000,
		CellsTotal:   len(cells),
		CellsFailed:  failed,
		Insts:        insts,
		Meta:         g.Meta,
		Cells:        cells,
	}
	if act.RegWriteTotal() > 0 || act.RegReadTotal() > 0 {
		m.Activity = map[string]uint64{
			"reg_reads":        act.RegReadTotal(),
			"reg_writes":       act.RegWriteTotal(),
			"wakeup_events":    act.WakeupTotal(),
			"bypass_drives":    act.BypassDriveTotal(),
			"bypass_uses":      act.BypassUseTotal(),
			"moves":            act.Moves,
			"free_list_stalls": act.FreeListStallTotal(),
		}
	}
	return m
}

// WriteManifest writes the run manifest as indented JSON.
func (g *GridTelemetry) WriteManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g.BuildManifest())
}

// HostTrace renders the recorded grid.cell spans as the worker-pool
// Chrome trace (one track per worker, one slice per cell), through the
// same layout as the daemon's job trace.
func (g *GridTelemetry) HostTrace() []TraceEvent {
	return otrace.ChromeEvents("wsrsbench", g.Spans())
}

// WriteHostTrace writes the worker-pool trace as Perfetto-loadable
// Chrome trace JSON.
func (g *GridTelemetry) WriteHostTrace(w io.Writer) error {
	return WriteTrace(w, g.HostTrace())
}

// Spans returns the per-cell "grid.cell" spans recorded so far,
// oldest first.
func (g *GridTelemetry) Spans() []otrace.Span {
	return g.spans.rec.Snapshot()
}

// WriteSpans writes the recorded spans as an otrace document (the
// wsrsbench -spans artifact; same wire shape as the daemon's
// /v1/jobs/{id}/trace endpoint, validated by telcheck -spans).
func (g *GridTelemetry) WriteSpans(w io.Writer) error {
	rec := g.spans.rec
	doc := otrace.NewDocument(g.spans.parent.Trace, g.Spans())
	doc.Label = g.Label
	doc.Evicted = rec.Total() - uint64(rec.Len())
	return otrace.WriteDocument(w, doc)
}
