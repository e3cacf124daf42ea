package main

import (
	"context"
	"fmt"
	"time"

	"wsrs"
	"wsrs/internal/otrace"
)

// gridWorkload is a Figure 4 grid over one half of the kernels, plus
// one cell per kernel timed cold and warm and in-process explorations
// of two of the kernels, repeated in rounds until the run's time is
// spent.
type gridWorkload struct {
	name           string
	kernels        []string
	exploreKernels []string
}

// minRounds is the fewest rounds a run measures, however slow the
// host: a traced run needs untraced and traced rounds to compare.
const minRounds = 3

// setup prepares one grid round: the process's engine pools and heap
// are warmed by one short cell per kernel, then the trace cache is
// emptied again so the timed grid starts cold, as every wsrsbench
// invocation does.
func (g gridWorkload) setup(seed int64) error {
	var cells []wsrs.GridCell
	for _, k := range g.kernels {
		cells = append(cells, wsrs.GridCell{Kernel: k, Config: wsrs.Figure4Configs()[0]})
	}
	wsrs.ResetTraceCache()
	_, err := wsrs.RunGrid(cells, wsrs.SimOpts{WarmupInsts: 2_000, MeasureInsts: 8_000,
		Seed: derive(seed, streamCell, 0, 0)}, workers)
	wsrs.ResetTraceCache()
	return err
}

func (g gridWorkload) run(seed int64, seconds float64, traced bool) (*outcome, error) {
	out := newOutcome()
	if traced {
		out.rec = otrace.NewRecorder(1 << 14)
	}
	var setups []float64
	var plain, tr []gridRound
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start).Seconds() < seconds; i++ {
		// Every round is set up afresh, so setup_s is a median over
		// the whole run; the first set-up counts from process start.
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if err := g.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())

		// A traced run alternates untraced and traced rounds, which
		// keeps host-speed drift out of the tracing-overhead figure.
		var rec *otrace.Recorder
		if traced && i%2 == 1 {
			rec = out.rec
		}
		r, err := runGridRound(context.Background(), out, g.kernels, g.exploreKernels, seed, i, rec)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			frontier, err := r.explores[0].doc.Render()
			if err != nil {
				return nil, err
			}
			d := newDigester()
			d.bytes([]byte(r.gridDigest))
			d.bytes(frontier)
			out.digest = d.sum()
		} else if r.gridDigest != plain[0].gridDigest {
			out.fail("round %d: grid results differ from round 0", i)
		}
		if rec == nil {
			plain = append(plain, r)
		} else {
			tr = append(tr, r)
		}
	}
	out.e2e["setup_s"] = median(setups)
	out.notes["setup_s"] = fmt.Sprintf("median of %d set-ups; the first, from process start, %.4f s", len(setups), setups[0])
	want, err := recordedDigest(g.name)
	if err != nil {
		return nil, err
	}
	if seed == defaultSeed && want != "" && out.digest != want {
		out.fail("results digest %s differs from the one recorded for seed %d (%s)", out.digest, defaultSeed, want)
	}
	g.endToEnd(out, plain)
	if traced {
		g.layers(out, tr)
		out.layer["trace.overhead_share"] = median(gridWalls(tr))/median(gridWalls(plain)) - 1
	}
	return out, nil
}

func gridWalls(rounds []gridRound) []float64 {
	var w []float64
	for _, r := range rounds {
		w = append(w, r.grid.wall.Seconds())
	}
	return w
}

func (g gridWorkload) endToEnd(out *outcome, rounds []gridRound) {
	var mips, rate, cold, warm, explores []float64
	for _, r := range rounds {
		mips = append(mips, float64(r.simInsts)/r.grid.wall.Seconds()/1e6)
		busy := r.grid.wall.Seconds()
		for _, x := range r.explores {
			busy += x.ms / 1e3
		}
		rate = append(rate, float64(len(r.grid.cells)+len(r.explores))/busy)
		cold = append(cold, r.cold.cellsMs()...)
		warm = append(warm, r.warm.cellsMs()...)
		for _, x := range r.explores {
			explores = append(explores, x.ms)
		}
	}
	out.e2e["grid_wall_s"] = median(gridWalls(rounds))
	out.e2e["sim_minst_per_s"] = median(mips)
	out.timing("job_cold", cold)
	out.timing("job_warm", warm)
	out.e2e["explore_p50_ms"] = median(explores)
	out.notes["explore_p50_ms"] = fmt.Sprintf("n=%d", len(explores))
	out.notes["grid_wall_s"] = fmt.Sprintf("median of %d grids", len(rounds))
	out.e2e["jobs_per_s"] = median(rate)
}

func (g gridWorkload) layers(out *outcome, rounds []gridRound) {
	var build, muops, cellMs, busy, tail []float64
	var cellNs, cycles, insts float64
	var prefilter, evaluate, frontier []float64
	for _, r := range rounds {
		build = append(build, r.drainMs)
		muops = append(muops, float64(r.drainUops)/r.drainMs/1e3)
		// The pipeline is timed on the replayed grid, whose cells
		// build no trace; the grid layer on the timed grid.
		for i, c := range r.replay.cells {
			ms := r.replay.obs.cellMs(i)
			cellMs = append(cellMs, ms)
			cellNs += ms * 1e6
			cycles += float64(c.Result.Cycles)
			insts += float64(gridWarmup + c.Result.Insts)
		}
		var sum float64
		for _, ms := range r.grid.cellsMs() {
			sum += ms
		}
		wallMs := float64(r.grid.wall.Microseconds()) / 1e3
		busy = append(busy, sum/(wallMs*workers))
		tail = append(tail, wallMs-sum/workers)
		for _, x := range r.explores {
			prefilter = append(prefilter, x.phasesMs["prefilter"])
			evaluate = append(evaluate, x.phasesMs["evaluate"])
			frontier = append(frontier, x.phasesMs["frontier"])
		}
	}
	last := rounds[len(rounds)-1]
	l := out.layer
	l["funcsim.build_ms"] = median(build)
	l["funcsim.muops_per_s"] = median(muops)
	l["tracecache.misses"] = float64(last.trace.Misses)
	l["tracecache.hits"] = float64(last.trace.Hits)
	l["tracecache.uops"] = float64(last.trace.Ops)
	l["pipeline.cell_ms_p50"] = median(cellMs)
	l["pipeline.cell_ms_max"] = percentile(cellMs, 100)
	l["pipeline.host_ns_per_cycle"] = cellNs / cycles
	l["pipeline.host_ns_per_inst"] = cellNs / insts
	var sc, si float64
	for _, c := range last.grid.cells {
		sc += float64(c.Result.Cycles)
		si += float64(c.Result.Insts)
	}
	l["pipeline.sim_cycles"] = sc
	l["pipeline.sim_insts"] = si
	l["grid.worker_busy_share"] = median(busy)
	l["grid.tail_ms"] = median(tail)
	l["explore.prefilter_ms"] = median(prefilter)
	l["explore.evaluate_ms"] = median(evaluate)
	l["explore.frontier_ms"] = median(frontier)
	doc := last.explores[0].doc
	l["explore.points_evaluated"] = float64(doc.Evaluated)
	l["explore.points_pruned"] = float64(len(doc.PrunedSet))
	l["explore.frontier_size"] = float64(len(doc.Frontier))
	out.notes["pipeline.cell_ms_p50"] = fmt.Sprintf("n=%d", len(cellMs))
}
