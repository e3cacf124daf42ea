// Command wsrsbench regenerates the paper's evaluation: Table 1
// (register-file complexity), Figure 4 (IPC of 12 benchmarks on 6
// configurations) and Figure 5 (workload unbalancing degree), plus
// the repository's ablation sweeps.
//
// Simulations fan out across a worker pool (-parallel, default
// GOMAXPROCS) over a shared memoized trace cache: each kernel's
// functional simulation runs once regardless of how many
// configurations and seeds replay it, and output is byte-identical to
// the serial harness (-parallel=1) for a fixed seed.
//
// -progress prints one stderr line per finished cell; -manifest,
// -trace and -spans write the run record (JSON manifest, worker-pool
// Chrome trace, grid.cell span document) once the experiments finish —
// also when a cell failed, before wsrsbench exits non-zero;
// -cpuprofile and -memprofile cover profiling. wsrsbench opens no HTTP
// endpoint: the live service surface is cmd/wsrsd.
//
// Usage:
//
//	wsrsbench                       # everything, default slice sizes
//	wsrsbench -exp figure4          # one experiment
//	wsrsbench -warmup 50000 -measure 200000
//	wsrsbench -kernels gzip,crafty  # subset of benchmarks
//	wsrsbench -parallel 1           # serial reference run
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"wsrs"
	"wsrs/internal/report"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, figure4, figure5, energy, mix, ablations, all")
	warmup := flag.Uint64("warmup", 20_000, "warmup instructions per run")
	measure := flag.Uint64("measure", 100_000, "measured instructions per run")
	seed := flag.Int64("seed", 1, "allocation-policy seed")
	seeds := flag.Int("seeds", 1, "number of seeds for figure4 (mean ± std error bars)")
	kernelCSV := flag.String("kernels", "", "comma-separated benchmark subset (default: all 12)")
	parallel := flag.Int("parallel", 0, "simulation worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	stats := flag.Bool("stats", false, "append per-cell wall time and stall-stack columns to figure4")
	telFlag := flag.Bool("telemetry", false, "count dynamic activity in every cell (adds the pJ/inst column to -stats tables)")
	progress := flag.Bool("progress", false, "print one line per completed grid cell to stderr (cell, IPC, wall time, trace cache state)")
	manifest := flag.String("manifest", "", "write the JSON run manifest (config digest, per-cell outcomes, instruction and activity totals) to this file")
	hostTrace := flag.String("trace", "", "write a Chrome trace (Perfetto-loadable) of the worker pool to this file")
	spansOut := flag.String("spans", "", "write the per-cell span document (otrace JSON, telcheck-validatable) to this file")
	checkFlag := flag.Bool("check", false, "run the self-checking layer (co-simulation oracle, legality checks, structural audits) in every cell")
	maxCycles := flag.Int64("max-cycles", 0, "fail any cell that reaches this many simulated cycles (0 = unbounded)")
	resume := flag.String("resume", "", "content-addressed result store (wsrsd -cache format): restore cells already recorded there and append newly finished ones")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := wsrs.SimOpts{
		WarmupInsts:  *warmup,
		MeasureInsts: *measure,
		Seed:         *seed,
		Parallelism:  *parallel,
		Stats:        *stats,
		Telemetry:    *telFlag || *exp == "energy",
		Check:        *checkFlag,
		MaxCycles:    *maxCycles,
		Checkpoint:   *resume,
	}
	kernelList, err := parseKernels(*kernelCSV)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsrsbench:", err)
		os.Exit(2)
	}

	// The grid observer feeds the progress lines, the manifest, the
	// span document and the host trace; build it whenever any of those
	// outputs is requested.
	var gt *wsrs.GridTelemetry
	if *progress || *manifest != "" || *hostTrace != "" || *spansOut != "" {
		gt = wsrs.NewGridTelemetry()
		gt.Label = *exp
		gt.Meta = runMeta(opts, *kernelCSV)
		if *progress {
			gt.Progress = os.Stderr
		}
		opts.Observer = gt
	}

	start := time.Now()
	var runErr error
	switch *exp {
	case "table1":
		table1()
	case "figure4":
		if *seeds > 1 {
			runErr = figure4Seeds(kernelList, opts, *seeds)
		} else {
			runErr = figure4(kernelList, opts)
		}
	case "figure5":
		runErr = figure5(kernelList, opts)
	case "energy":
		runErr = energy(kernelList, opts)
	case "mix":
		runErr = mix()
	case "ablations":
		runErr = ablations(opts)
	case "all":
		table1()
		for _, run := range []func() error{
			mix,
			func() error { return figure4(kernelList, opts) },
			func() error { return figure5(kernelList, opts) },
			func() error { return energy(kernelList, opts) },
			func() error { return ablations(opts) },
		} {
			fmt.Println()
			if runErr = run(); runErr != nil {
				break
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "wsrsbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if runErr == nil {
		fmt.Printf("\ntotal elapsed: %s; %s\n",
			time.Since(start).Round(time.Millisecond), wsrs.TraceStats())
	}

	// The run record and the profiles are written even when a cell
	// failed: that is when they are needed most (telcheck
	// -allow-failed reads the manifest).
	if gt != nil {
		if *manifest != "" {
			writeFile(*manifest, gt.WriteManifest)
		}
		if *hostTrace != "" {
			writeFile(*hostTrace, gt.WriteHostTrace)
		}
		if *spansOut != "" {
			writeFile(*spansOut, gt.WriteSpans)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
	if runErr != nil {
		// fatal exits without running the deferred calls: flush the
		// CPU profile first (a no-op when not profiling).
		pprof.StopCPUProfile()
		fatal(runErr)
	}
}

// runMeta records the run-wide options that change what a grid
// computes or records — slice sizes, seed, kernel subset, telemetry,
// stall statistics, self-checking and the cycle budget — so the
// manifest's config digest tells apart runs that differ in any of
// them.
func runMeta(opts wsrs.SimOpts, kernels string) map[string]string {
	return map[string]string{
		"warmup":     fmt.Sprint(opts.WarmupInsts),
		"measure":    fmt.Sprint(opts.MeasureInsts),
		"seed":       fmt.Sprint(opts.Seed),
		"kernels":    kernels,
		"telemetry":  fmt.Sprint(opts.Telemetry),
		"stats":      fmt.Sprint(opts.Stats),
		"check":      fmt.Sprint(opts.Check),
		"max-cycles": fmt.Sprint(opts.MaxCycles),
	}
}

// parseKernels validates the -kernels list against the registered
// benchmark names up front, so a typo fails before any simulation
// runs (not mid-grid with a partial table already printed).
func parseKernels(csv string) ([]string, error) {
	if csv == "" {
		return nil, nil
	}
	var out []string
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if err := wsrs.ValidateKernelNames([]string{name}); err != nil {
			return nil, err
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-kernels %q names no benchmarks; valid kernels: %s",
			csv, strings.Join(wsrs.Kernels(), ", "))
	}
	return out, nil
}

func table1() {
	wsrs.RenderTable1(os.Stdout)
}

func mix() error {
	mixes, err := wsrs.CharacterizeAll(100_000)
	if err != nil {
		return err
	}
	wsrs.RenderMixes(os.Stdout, mixes)
	return nil
}

func figure4(kernels []string, opts wsrs.SimOpts) error {
	cells, err := wsrs.RunFigure4(nil, kernels, opts)
	if err != nil {
		return err
	}
	wsrs.RenderFigure4(os.Stdout, cells)
	if opts.Stats {
		fmt.Println()
		wsrs.RenderFigure4Stats(os.Stdout, cells)
	}
	return nil
}

// figure4Seeds prints Figure 4 with multi-seed error bars for the
// randomized WSRS policies.
func figure4Seeds(kernels []string, opts wsrs.SimOpts, n int) error {
	if kernels == nil {
		kernels = wsrs.Kernels()
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 4 — IPC, mean ± std over %d seeds", n),
		"benchmark", "RR 256", "WSRS RC S 512", "WSRS RM S 512")
	for _, k := range kernels {
		rr, err := wsrs.RunKernel(wsrs.ConfRR256, k, opts)
		if err != nil {
			return err
		}
		row := []any{k, fmt.Sprintf("%.2f", rr.IPC)}
		for _, conf := range []wsrs.ConfigName{wsrs.ConfWSRSRC512, wsrs.ConfWSRSRM512} {
			results, err := wsrs.RunKernelSeeds(conf, k, opts, n)
			if err != nil {
				return err
			}
			st := wsrs.IPCStats(results)
			row = append(row, fmt.Sprintf("%.2f ± %.3f", st.Mean, st.Std))
		}
		t.AddRow(row...)
	}
	t.Render(os.Stdout)
	return nil
}

func figure5(kernels []string, opts wsrs.SimOpts) error {
	cells, err := wsrs.RunFigure5(kernels, opts)
	if err != nil {
		return err
	}
	wsrs.RenderFigure5(os.Stdout, cells)
	return nil
}

func energy(kernels []string, opts wsrs.SimOpts) error {
	cells, err := wsrs.RunEnergy(nil, kernels, opts)
	if err != nil {
		return err
	}
	wsrs.RenderEnergy(os.Stdout, cells)
	return nil
}

// writeFile opens path and streams write into it, failing loudly —
// a half-written manifest or trace is worse than none.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// ablations fans each sweep through the worker pool and stops at the
// first failure; results come back in cell order, so each table
// renders identically to the old serial loops.
func ablations(opts wsrs.SimOpts) error {
	grid := func(cells []wsrs.GridCell) ([]wsrs.GridResult, error) {
		return wsrs.RunGrid(cells, opts, opts.Parallelism)
	}
	// Renaming implementation 1 vs 2 (§2.2).
	impl, err := grid([]wsrs.GridCell{
		{Kernel: "gzip", Config: wsrs.ConfWSRSRC512},
		{Kernel: "gzip", Config: wsrs.ConfWSRSRC512,
			Mods: []wsrs.MachineOption{wsrs.WithRenameImpl1(3)}},
	})
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation — renaming implementation (WSRS RC 512, gzip)",
		"implementation", "IPC", "rename-stall slots")
	t.AddRow("impl 2 (exact-count, 18-cycle penalty)", impl[0].Result.IPC, impl[0].Result.StallRename)
	t.AddRow("impl 1 (over-pick d=3, 16-cycle penalty)", impl[1].Result.IPC, impl[1].Result.StallRename)
	t.Render(os.Stdout)
	fmt.Println()

	// Register budget sweep with the deadlock workaround.
	budgets := []int{256, 384, 512, 768}
	var cells []wsrs.GridCell
	for _, regs := range budgets {
		cells = append(cells, wsrs.GridCell{Kernel: "gzip", Config: wsrs.ConfWSRSRC512,
			Mods: []wsrs.MachineOption{wsrs.WithRegisters(regs), wsrs.WithDeadlockMoves()}})
	}
	t = report.NewTable("Ablation — WSRS register budget (gzip, RC)",
		"registers", "per subset", "IPC", "injected moves", "rename-stall slots")
	res, err := grid(cells)
	if err != nil {
		return err
	}
	for i, g := range res {
		t.AddRow(budgets[i], budgets[i]/4, g.Result.IPC, g.Result.InjectedMoves, g.Result.StallRename)
	}
	t.Render(os.Stdout)
	fmt.Println()

	// Inter-cluster forwarding delay sweep.
	delays := []int{0, 1, 2, 3}
	cells = cells[:0]
	for _, d := range delays {
		for _, conf := range []wsrs.ConfigName{wsrs.ConfRR256, wsrs.ConfWSRSRC512} {
			cells = append(cells, wsrs.GridCell{Kernel: "gzip", Config: conf,
				Mods: []wsrs.MachineOption{wsrs.WithXClusterDelay(d)}})
		}
	}
	if res, err = grid(cells); err != nil {
		return err
	}
	t = report.NewTable("Ablation — inter-cluster forwarding delay (gzip)",
		"delay", "RR 256 IPC", "WSRS RC 512 IPC")
	for i, d := range delays {
		t.AddRow(d, res[2*i].Result.IPC, res[2*i+1].Result.IPC)
	}
	t.Render(os.Stdout)
	fmt.Println()

	// Figure 2a vs 2b: identical clusters vs pools of functional units.
	orgKernels := []string{"gzip", "crafty", "wupwise"}
	cells = cells[:0]
	for _, k := range orgKernels {
		cells = append(cells,
			wsrs.GridCell{Kernel: k, Config: wsrs.ConfWSRR512},
			wsrs.GridCell{Kernel: k, Config: wsrs.ConfWSPools512})
	}
	if res, err = grid(cells); err != nil {
		return err
	}
	t = report.NewTable("Ablation — WS organization (Figure 2a clusters vs 2b pools)",
		"benchmark", "WSRR 512 (clusters) IPC", "WS pools 512 IPC")
	for i, k := range orgKernels {
		t.AddRow(k, res[2*i].Result.IPC, res[2*i+1].Result.IPC)
	}
	t.Render(os.Stdout)
	fmt.Println()

	// Fast-forwarding hardware options (§4.3.1).
	fws := []string{wsrs.ForwardComplete, wsrs.ForwardPairs, wsrs.ForwardIntra}
	cells = cells[:0]
	for _, fw := range fws {
		for _, conf := range []wsrs.ConfigName{wsrs.ConfRR256, wsrs.ConfWSRSRC512} {
			cells = append(cells, wsrs.GridCell{Kernel: "galgel", Config: conf,
				Mods: []wsrs.MachineOption{wsrs.WithForwarding(fw)}})
		}
	}
	if res, err = grid(cells); err != nil {
		return err
	}
	t = report.NewTable("Ablation — fast-forwarding options (galgel)",
		"forwarding", "RR 256 IPC", "WSRS RC 512 IPC")
	for i, fw := range fws {
		t.AddRow(fw, res[2*i].Result.IPC, res[2*i+1].Result.IPC)
	}
	t.Render(os.Stdout)
	fmt.Println()

	// Allocation policies, including the future-work balanced policy.
	policies := []string{"RM", "RC", "RC-bal", "RC-dep"}
	cells = cells[:0]
	for _, p := range policies {
		cells = append(cells, wsrs.GridCell{Kernel: "facerec", Config: wsrs.ConfWSRSRC512, Policy: p})
	}
	if res, err = grid(cells); err != nil {
		return err
	}
	t = report.NewTable("Ablation — allocation policy (WSRS 512, facerec)",
		"policy", "IPC", "unbalancing %")
	for i, p := range policies {
		t.AddRow(p, res[i].Result.IPC, fmt.Sprintf("%.1f", res[i].Result.UnbalancingDegree))
	}
	t.Render(os.Stdout)
	return nil
}

// fatal prints the one-line diagnostic — for checker failures the
// verdict names the failing cell, the cycle and the checker — then
// any multi-line diagnostic dump, and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wsrsbench:", err)
	var v *wsrs.CheckViolation
	if errors.As(err, &v) && v.Detail != "" {
		fmt.Fprintln(os.Stderr, v.Detail)
	}
	var p *wsrs.CellPanicError
	if errors.As(err, &p) {
		fmt.Fprintln(os.Stderr, p.Stack)
	}
	os.Exit(1)
}
