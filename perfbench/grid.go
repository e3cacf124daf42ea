package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"wsrs"
	"wsrs/internal/explore"
	"wsrs/internal/kernels"
	"wsrs/internal/otrace"
)

// The wsrsbench default windows: every grid cell simulates this many
// warm-up and measured instructions.
const (
	gridWarmup  = 20_000
	gridMeasure = 100_000
)

// gridCells is the Figure 4 grid over the given kernels, in the order
// wsrsbench runs it (kernel-major, the six Figure4Configs each).
func gridCells(kernelNames []string) []wsrs.GridCell {
	var cells []wsrs.GridCell
	for _, k := range kernelNames {
		for _, c := range wsrs.Figure4Configs() {
			cells = append(cells, wsrs.GridCell{Kernel: k, Config: c})
		}
	}
	return cells
}

// cellObserver is the benchmark's GridObserver: it stamps each cell's
// start and end, and in a traced run records one span per cell under
// the grid's span.
type cellObserver struct {
	rec    *otrace.Recorder // nil in untraced runs
	parent otrace.Ctx

	mu    sync.Mutex
	start []int64
	end   []int64
}

func newCellObserver(n int, rec *otrace.Recorder, parent otrace.Ctx) *cellObserver {
	return &cellObserver{rec: rec, parent: parent, start: make([]int64, n), end: make([]int64, n)}
}

func (o *cellObserver) CellStarted(i int, cell wsrs.GridCell, worker int) {
	now := otrace.Now()
	o.mu.Lock()
	o.start[i] = now
	o.mu.Unlock()
}

func (o *cellObserver) CellFinished(i int, r wsrs.GridResult) {
	now := otrace.Now()
	o.mu.Lock()
	o.end[i] = now
	start := o.start[i]
	o.mu.Unlock()
	if o.rec != nil {
		sp := o.rec.Make("grid.cell", o.parent, start, now)
		sp.SetStr("kernel", r.Cell.Kernel)
		sp.SetStr("config", string(r.Cell.Config))
		sp.SetInt("worker", int64(r.Worker))
		sp.SetInt("cycles", r.Result.Cycles)
		o.rec.Append(&sp)
	}
}

// cellMs returns cell i's wall time in milliseconds.
func (o *cellObserver) cellMs(i int) float64 { return float64(o.end[i]-o.start[i]) / 1e6 }

// exploreTimer is the in-process explore.Observer: it stamps each
// search phase and, when traced, records one span per phase.
type exploreTimer struct {
	rec    *otrace.Recorder
	parent otrace.Ctx
	phases map[string]float64 // phase -> ms spent
	cur    string
	at     int64
}

func (e *exploreTimer) Phase(name string) {
	e.close(otrace.Now())
	e.cur, e.at = name, otrace.Now()
}

func (e *exploreTimer) Progress(int, int, int) {}

func (e *exploreTimer) close(now int64) {
	if e.cur == "" {
		return
	}
	e.phases[e.cur] += float64(now-e.at) / 1e6
	if e.rec != nil {
		sp := e.rec.Make("explore."+e.cur, e.parent, e.at, now)
		e.rec.Append(&sp)
	}
	e.cur = ""
}

// exploresPerRound is how many in-process explorations follow each
// grid. One exploration is short (~0.1 s), so several per round keep
// its median off a single moment of host speed.
const exploresPerRound = 3

// gridRound is one timed unit of a grid workload: the 36-cell grid
// from a cold trace cache, then each kernel's first cell timed cold
// and warm, then exploresPerRound in-process explorations.
type gridRound struct {
	grid timedGrid // the timed grid, from a cold trace cache
	// cold and warm run the same cells, one per kernel: cold from an
	// emptied trace cache, so each builds its kernel's trace, and warm
	// right after, so each replays it.
	cold, warm timedGrid
	// replay re-runs the grid once its traces are all memoized, so its
	// cells time the pipeline without trace build (traced rounds).
	replay     timedGrid
	trace      wsrs.TraceCacheStats
	explores   []exploreRun
	drainMs    float64 // traced rounds: funcsim drain time
	drainUops  uint64
	simInsts   uint64 // warm-up + measured instructions of every cell
	gridDigest string
}

// timedGrid is one wsrs.RunGrid call with every cell stamped.
type timedGrid struct {
	wall  time.Duration
	cells []wsrs.GridResult
	obs   *cellObserver
}

// runTimedGrid runs cells at the grid windows. In a traced round the
// cell spans nest under a span of the given name. The heap is
// collected first, outside the timing, so garbage of the previous run
// (a dropped trace cache holds ~100 MB) is not collected inside this
// one.
func runTimedGrid(name string, cells []wsrs.GridCell, seed int64, rec *otrace.Recorder, root otrace.Ctx) (timedGrid, error) {
	var g timedGrid
	var sp otrace.Span
	if rec != nil {
		sp = rec.Begin(name, root)
	}
	g.obs = newCellObserver(len(cells), rec, sp.Ctx())
	opts := wsrs.SimOpts{
		WarmupInsts:  gridWarmup,
		MeasureInsts: gridMeasure,
		Seed:         derive(seed, streamCell, 0, 0),
		Observer:     g.obs,
	}
	runtime.GC()
	t0 := time.Now()
	out, err := wsrs.RunGrid(cells, opts, workers)
	g.wall = time.Since(t0)
	if rec != nil {
		rec.End(&sp)
	}
	if err != nil {
		return g, fmt.Errorf("%s: %w", name, err)
	}
	g.cells = out
	return g, nil
}

// cellsMs returns the wall time of every cell, in milliseconds.
func (g timedGrid) cellsMs() []float64 {
	ms := make([]float64, len(g.cells))
	for i := range ms {
		ms[i] = g.obs.cellMs(i)
	}
	return ms
}

func (g timedGrid) digest() string {
	d := newDigester()
	for _, c := range g.cells {
		d.results(c.Result)
	}
	return d.sum()
}

// runGridRound runs one round. In a traced round each kernel's
// functional simulator is first drained for the grid's window, timed
// on its own (the grid's cache stays cold: the drain runs outside it),
// and the grid is re-run from the warm cache to time the pipeline
// alone. Every run of a cell must give the same results as the timed
// grid's; a mismatch counts as a failed operation.
func runGridRound(ctx context.Context, out *outcome, kernelNames []string, exploreKernels []string, seed int64, round int, rec *otrace.Recorder) (gridRound, error) {
	var r gridRound
	var root otrace.Ctx
	if rec != nil {
		root = otrace.Ctx{Trace: rec.NewTrace()}
		start := otrace.Now()
		for _, k := range kernelNames {
			n, err := drainFuncsim(k, gridWarmup+gridMeasure, rec, root)
			if err != nil {
				return r, err
			}
			r.drainUops += n
		}
		r.drainMs = float64(otrace.Now()-start) / 1e6
	}

	cells := gridCells(kernelNames)
	wsrs.ResetTraceCache()
	var err error
	if r.grid, err = runTimedGrid("grid", cells, seed, rec, root); err != nil {
		return r, err
	}
	r.trace = wsrs.TraceStats()
	for _, c := range r.grid.cells {
		r.simInsts += gridWarmup + c.Result.Insts
	}
	r.gridDigest = r.grid.digest()
	out.attempted += len(cells)

	if rec != nil {
		if r.replay, err = runTimedGrid("grid.replay", cells, seed, rec, root); err != nil {
			return r, err
		}
		out.attempted += len(cells)
		if r.replay.digest() != r.gridDigest {
			out.fail("round %d: the replayed grid's results differ from the cold grid's", round)
		}
	}

	// One cell per kernel, timed cold and then warm. Kernel k takes
	// Figure 4 config (round+k) mod 6, so six rounds time every cell of
	// the grid both ways, and the latencies spread over 36 cells
	// instead of clustering on six, whose median would jump between
	// two kernels' clusters from run to run.
	var pair []wsrs.GridCell
	d := newDigester()
	nc := len(wsrs.Figure4Configs())
	for k := range kernelNames {
		c := r.grid.cells[k*nc+(round+k)%nc]
		pair = append(pair, c.Cell)
		d.results(c.Result)
	}
	want := d.sum()
	wsrs.ResetTraceCache()
	if r.cold, err = runTimedGrid("pair.cold", pair, seed, rec, root); err != nil {
		return r, err
	}
	if r.warm, err = runTimedGrid("pair.warm", pair, seed, rec, root); err != nil {
		return r, err
	}
	out.attempted += 2 * len(pair)
	if r.cold.digest() != want || r.warm.digest() != want {
		out.fail("round %d: a cold or warm re-run of a grid cell gave other results", round)
	}

	for j := 0; j < exploresPerRound; j++ {
		seed := derive(seed, streamExplore, uint64(round), uint64(j))
		x, err := runExplore(ctx, exploreRequest(exploreKernels, seed), rec)
		if err != nil {
			return r, err
		}
		r.explores = append(r.explores, x)
	}
	out.attempted += len(r.explores)
	return r, nil
}

// exploreRun is one in-process exploration of a grid round.
type exploreRun struct {
	ms       float64
	phasesMs map[string]float64
	doc      *explore.Document
}

// runExplore runs one exploration. The heap is collected first,
// outside the timing, so a collection owed by the grids before it
// does not land inside some explorations and not others.
func runExplore(ctx context.Context, req explore.Request, rec *otrace.Recorder) (exploreRun, error) {
	et := &exploreTimer{rec: rec, phases: map[string]float64{}}
	var sp otrace.Span
	if rec != nil {
		sp = rec.Begin("explore", otrace.Ctx{})
		et.parent = sp.Ctx()
	}
	runtime.GC()
	t0 := time.Now()
	doc, err := explore.Run(ctx, req, &explore.LocalEvaluator{Parallelism: workers}, et)
	et.close(otrace.Now())
	x := exploreRun{ms: ms(time.Since(t0)), phasesMs: et.phases, doc: doc}
	if rec != nil {
		rec.End(&sp)
	}
	if err != nil {
		return x, fmt.Errorf("explore: %w", err)
	}
	if len(doc.Frontier) == 0 {
		return x, fmt.Errorf("explore: empty frontier")
	}
	return x, nil
}

// drainFuncsim runs a fresh functional simulator of kernel until it
// has produced insts instructions, returning the µops produced — the
// trace-build work a cold grid pays inside its first cell per kernel.
func drainFuncsim(kernel string, insts uint64, rec *otrace.Recorder, parent otrace.Ctx) (uint64, error) {
	k, ok := kernels.ByName(kernel)
	if !ok {
		return 0, fmt.Errorf("unknown kernel %q", kernel)
	}
	var sp otrace.Span
	if rec != nil {
		sp = rec.Begin("funcsim.drain", parent)
		sp.SetStr("kernel", kernel)
	}
	sim, err := k.NewSim()
	if err != nil {
		return 0, err
	}
	var n uint64
	for {
		op, ok := sim.Next()
		if !ok {
			if err := sim.Err(); err != nil {
				return n, fmt.Errorf("funcsim %s: %w", kernel, err)
			}
			break
		}
		n++
		if op.InstSeq >= insts {
			break
		}
	}
	if rec != nil {
		sp.SetInt("uops", int64(n))
		rec.End(&sp)
	}
	return n, nil
}
