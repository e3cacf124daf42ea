package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"wsrs"
	"wsrs/internal/cellcache"
	"wsrs/internal/fleet"
	"wsrs/internal/fleet/chaos"
	"wsrs/internal/report"
	"wsrs/internal/serve"
)

// fleetRun is one scatter/gather measurement: a backend count, whether
// one backend was hard-killed mid-job, the wall clock and throughput,
// and the coordinator's failure-path counter deltas — the evidence
// that the run either sailed through or actually recovered.
type fleetRun struct {
	Backends       int     `json:"backends"`
	KilledOne      bool    `json:"killed_one_backend"`
	WallMs         float64 `json:"wall_ms"`
	CellsPerSec    float64 `json:"cells_per_sec"`
	Retries        uint64  `json:"retries"`
	Hedges         uint64  `json:"hedges"`
	Ejections      uint64  `json:"ejections"`
	LocalFallbacks uint64  `json:"local_fallbacks"`
	Identical      bool    `json:"results_identical"`
	// PerBackend is the coordinator's dispatch accounting: attempts,
	// failures, hedge wins and attempt latency per member — where the
	// work (and the routing around a killed member) actually landed.
	PerBackend []fleet.BackendStat `json:"backend_stats,omitempty"`
}

// fleetBenchReport is BENCH_fleet.json: scaling of one fixed grid
// across backend counts, plus a rerun at the widest count with one
// backend killed mid-job.
type fleetBenchReport struct {
	GOOS    string     `json:"goos"`
	GOARCH  string     `json:"goarch"`
	CPUs    int        `json:"cpus"`
	Cells   int        `json:"cells"`
	Warmup  uint64     `json:"warmup"`
	Measure uint64     `json:"measure"`
	Runs    []fleetRun `json:"runs"`
}

// fleetCells is the fixed grid every fleet run reproduces: three
// kernels, the paper's RR-256 and WSRR-384 machines, four seeds.
func fleetCells(warmup, measure uint64) []cellcache.CellID {
	var out []cellcache.CellID
	for _, k := range []string{"gzip", "mcf", "vpr"} {
		for _, cfg := range []string{string(wsrs.ConfRR256), string(wsrs.ConfWSRR384)} {
			for seed := int64(1); seed <= 4; seed++ {
				out = append(out, cellcache.CellID{
					Kernel: k, Config: cfg, Seed: seed, Warmup: warmup, Measure: measure,
				})
			}
		}
	}
	return out
}

// localBaseline runs every cell through a direct wsrs.RunGrid exactly
// the way the coordinator's local fallback does, and returns the
// encoded results every fleet run must match byte-for-byte.
func localBaseline(ids []cellcache.CellID) (string, error) {
	out := make([]wsrs.Result, len(ids))
	for i, id := range ids {
		res, err := wsrs.RunGrid([]wsrs.GridCell{{
			Kernel: id.Kernel, Config: wsrs.ConfigName(id.Config), Seed: id.Seed,
		}}, wsrs.SimOpts{
			WarmupInsts: id.Warmup, MeasureInsts: id.Measure, Seed: id.Seed,
		}, 1)
		if err != nil {
			return "", fmt.Errorf("baseline cell %d: %w", i, err)
		}
		out[i] = res[0].Result
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// fleetBackends boots n in-process wsrsd cores, each behind its own
// chaos proxy on a real loopback listener, and returns the proxies,
// the proxy URLs, and a teardown.
func fleetBackends(n, workers int) ([]*chaos.Proxy, []string, func(), error) {
	proxies := make([]*chaos.Proxy, 0, n)
	urls := make([]string, 0, n)
	var servers []*serve.Server
	var https []*http.Server
	stop := func() {
		for _, h := range https {
			_ = h.Close()
		}
		for _, s := range servers {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = s.Drain(ctx)
			cancel()
		}
	}
	for i := 0; i < n; i++ {
		s, err := serve.New(serve.Options{Workers: workers})
		if err != nil {
			stop()
			return nil, nil, nil, err
		}
		servers = append(servers, s)
		addr, hs, err := serve.Listen("127.0.0.1:0", s.Handler())
		if err != nil {
			stop()
			return nil, nil, nil, err
		}
		https = append(https, hs)
		p := chaos.NewProxy("http://" + addr)
		paddr, phs, err := serve.Listen("127.0.0.1:0", p)
		if err != nil {
			stop()
			return nil, nil, nil, err
		}
		https = append(https, phs)
		proxies = append(proxies, p)
		urls = append(urls, "http://"+paddr)
	}
	return proxies, urls, stop, nil
}

func fleetCounter(c *fleet.Coordinator, name string) uint64 {
	var total uint64
	for k, v := range c.Registry().Snapshot() {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// fleetRunOnce measures one scatter/gather pass over ids against a
// fresh fleet of n backends. When kill fires (non-nil), one backend is
// hard-killed that long into the run and the coordinator must route
// around it.
func fleetRunOnce(logger *slog.Logger, ids []cellcache.CellID, want string, n, workers int, killAfter time.Duration) (fleetRun, error) {
	run := fleetRun{Backends: n, KilledOne: killAfter > 0}
	proxies, urls, stop, err := fleetBackends(n, workers)
	if err != nil {
		return run, err
	}
	defer stop()

	c := fleet.New(fleet.Options{
		Backends:      urls,
		ProbeInterval: 250 * time.Millisecond,
		// Generous: a busy backend answers /readyz slowly when the host
		// is CPU-saturated by the simulations themselves, and must not
		// be benched for it — a killed backend resets the probe
		// immediately, so kill detection stays fast regardless.
		ProbeTimeout: 5 * time.Second,
		EjectAfter:   2,
		// Hedging off: on one host a straggler is CPU contention, and a
		// hedge would only add more. The retry path is the subject here.
		HedgeAfter:  -1,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
		Logger:      logger,
		Seed:        1,
	})
	defer c.Close()

	if killAfter > 0 {
		timer := time.AfterFunc(killAfter, func() {
			logger.Info("chaos: killing backend 0", slog.Duration("after", killAfter))
			proxies[0].Kill()
		})
		defer timer.Stop()
	}
	start := time.Now()
	got, err := c.RunCells(context.Background(), ids)
	wall := time.Since(start)
	if err != nil {
		return run, fmt.Errorf("fleet run (%d backends, kill=%v): %w", n, run.KilledOne, err)
	}
	b, err := json.Marshal(got)
	if err != nil {
		return run, err
	}
	run.Identical = string(b) == want
	run.WallMs = float64(wall.Microseconds()) / 1000
	if wall > 0 {
		run.CellsPerSec = float64(len(ids)) / wall.Seconds()
	}
	run.Retries = fleetCounter(c, "wsrsd_fleet_retries_total")
	run.Hedges = fleetCounter(c, "wsrsd_fleet_hedges_total")
	run.Ejections = fleetCounter(c, "wsrsd_fleet_ejections_total")
	run.LocalFallbacks = fleetCounter(c, "wsrsd_fleet_local_fallbacks_total")
	run.PerBackend = c.BackendStats()
	return run, nil
}

// runFleetBench is wsrsload's -fleet mode: boot fresh in-process
// fleets (real wsrsd cores behind chaos proxies on loopback), scatter
// one fixed grid across each backend count, verify byte-identity
// against a direct local run, then rerun the widest fleet with one
// backend killed mid-job. Writes the report as JSON to out when set.
func runFleetBench(logger *slog.Logger, counts []int, warmup, measure uint64, workers int, out string) error {
	ids := fleetCells(warmup, measure)
	logger.Info("fleet bench: computing local baseline", slog.Int("cells", len(ids)))
	want, err := localBaseline(ids)
	if err != nil {
		return err
	}
	rep := &fleetBenchReport{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU(),
		Cells: len(ids), Warmup: warmup, Measure: measure,
	}
	var widestWall time.Duration
	for _, n := range counts {
		run, err := fleetRunOnce(logger, ids, want, n, workers, 0)
		if err != nil {
			return err
		}
		rep.Runs = append(rep.Runs, run)
		widestWall = time.Duration(run.WallMs * float64(time.Millisecond))
		logger.Info("fleet level done", slog.Int("backends", n),
			slog.Float64("cells_per_sec", run.CellsPerSec), slog.Bool("identical", run.Identical))
	}

	// The robustness point: the widest fleet again, one backend
	// hard-killed a third of the way through the healthy run's wall
	// time — late enough to land mid-job, early enough to matter.
	killAfter := widestWall / 3
	if killAfter < 50*time.Millisecond {
		killAfter = 50 * time.Millisecond
	}
	if killAfter > 2*time.Second {
		killAfter = 2 * time.Second
	}
	widest := counts[len(counts)-1]
	run, err := fleetRunOnce(logger, ids, want, widest, workers, killAfter)
	if err != nil {
		return err
	}
	rep.Runs = append(rep.Runs, run)
	logger.Info("fleet kill run done", slog.Int("backends", widest),
		slog.Uint64("retries", run.Retries), slog.Uint64("ejections", run.Ejections),
		slog.Bool("identical", run.Identical))

	renderFleet(rep)
	for _, r := range rep.Runs {
		if !r.Identical {
			return fmt.Errorf("fleet run with %d backends (kill=%v) diverged from the local baseline", r.Backends, r.KilledOne)
		}
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		logger.Info("wrote report", slog.String("path", out))
	}
	return nil
}

func renderFleet(rep *fleetBenchReport) {
	t := report.NewTable(
		fmt.Sprintf("wsrsd fleet scatter/gather — %d cells, %d/%d insts",
			rep.Cells, rep.Warmup, rep.Measure),
		"backends", "killed", "wall ms", "cells/s", "retries", "hedges",
		"ejections", "fallbacks", "identical")
	for _, r := range rep.Runs {
		t.AddRow(r.Backends, r.KilledOne,
			fmt.Sprintf("%.0f", r.WallMs), fmt.Sprintf("%.1f", r.CellsPerSec),
			r.Retries, r.Hedges, r.Ejections, r.LocalFallbacks, r.Identical)
	}
	t.Render(os.Stdout)

	// The per-backend dispatch breakdown of each run: after a kill run
	// the dead member shows its failures while the survivors absorb the
	// rerouted attempts.
	for _, r := range rep.Runs {
		if len(r.PerBackend) == 0 {
			continue
		}
		bt := report.NewTable(
			fmt.Sprintf("per-backend dispatch — %d backends, killed=%v", r.Backends, r.KilledOne),
			"backend", "attempts", "failures", "hedge wins", "mean ms", "max ms")
		for _, b := range r.PerBackend {
			bt.AddRow(b.Backend, b.Attempts, b.Failures, b.HedgeWins,
				fmt.Sprintf("%.1f", b.MeanMs), fmt.Sprintf("%.1f", b.MaxMs))
		}
		bt.Render(os.Stdout)
	}
}
