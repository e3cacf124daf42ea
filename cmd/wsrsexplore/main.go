// Command wsrsexplore drives a design-space exploration and prints
// the Pareto frontier: IPC (maximized) against dynamic energy in
// pJ/inst and the register-file area proxy (both minimized).
//
// By default the search runs in-process over the local simulator. With
// -addr it is submitted to a running wsrsd daemon instead (POST
// /v1/explore), following the server-sent progress events and fetching
// the byte-identical frontier document when the job completes — the
// two modes render the same bytes for the same request.
//
// The space is given axis by axis as comma-separated value lists; the
// defaults reproduce the CI smoke space. -bench switches to the
// benchmark mode: the same space is explored twice, with and without
// the analytic pre-filter, the frontier bytes are checked identical
// (the pre-filter-safety property) and the throughput report is
// written as BENCH_explore.json.
//
// Usage:
//
//	wsrsexplore                                       # smoke space, local
//	wsrsexplore -clusters 2,4,8 -regs 512,1024 -policies RR,RC
//	wsrsexplore -strategy halving -rounds 3 -out frontier.json
//	wsrsexplore -addr http://127.0.0.1:8080 -out frontier.json
//	wsrsexplore -bench -out BENCH_explore.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wsrs/internal/explore"
	"wsrs/internal/report"
	"wsrs/internal/serve"
)

func main() {
	addr := flag.String("addr", "", "submit to this wsrsd daemon instead of exploring in-process")
	clusters := flag.String("clusters", "2,4", "cluster-count axis")
	widths := flag.String("widths", "2", "per-cluster issue-width axis")
	regs := flag.String("regs", "384,512,1024", "physical-register axis (per class)")
	iq := flag.String("iq", "16,56", "per-cluster scheduler-entries axis")
	rob := flag.String("rob", "64", "reorder-buffer axis")
	spec := flag.String("spec", "none,wsrs", "specialization axis (none, write, wsrs)")
	policies := flag.String("policies", "RR,RC", "steering-policy axis")
	kernels := flag.String("kernels", "gzip", "benchmark kernels averaged per point")
	strategy := flag.String("strategy", explore.StrategyGrid, "search strategy: grid, random or halving")
	seed := flag.Int64("seed", 1, "search and simulation seed")
	samples := flag.Int("samples", 0, "random strategy: sample size (0 = default)")
	rounds := flag.Int("rounds", 0, "halving strategy: evaluation rounds (0 = default)")
	eta := flag.Int("eta", 0, "halving strategy: keep ceil(n/eta) per round (0 = default)")
	prefilter := flag.Bool("prefilter", true, "apply the analytic M/M/c pre-filter")
	margin := flag.Float64("margin", 0, "pre-filter safety margin (0 = default)")
	warmup := flag.Uint64("warmup", 2_000, "warmup instructions per cell")
	measure := flag.Uint64("measure", 8_000, "measured instructions per cell")
	parallelism := flag.Int("parallelism", 0, "local mode: simulation workers (0 = GOMAXPROCS)")
	checkpoint := flag.String("checkpoint", "", "local mode: content-addressed result store (wsrsd -cache format) making the evaluation resumable")
	out := flag.String("out", "", "write the frontier document (or -bench report) to this file")
	bench := flag.Bool("bench", false, "benchmark mode: explore with and without the pre-filter, verify identical frontiers, report points/sec")
	quiet := flag.Bool("quiet", false, "suppress the progress stream on stderr")
	flag.Parse()

	req := explore.Request{
		Strategy: *strategy, Seed: *seed, Samples: *samples,
		Rounds: *rounds, Eta: *eta, Prefilter: prefilter, Margin: *margin,
		Warmup: *warmup, Measure: *measure,
	}
	var err error
	if req.Space, err = parseSpace(*clusters, *widths, *regs, *iq, *rob, *spec, *policies, *kernels); err != nil {
		fatal(err)
	}

	switch {
	case *bench:
		err = runBench(req, *parallelism, *out, *quiet)
	case *addr != "":
		err = runRemote(*addr, req, *out, *quiet)
	default:
		err = runLocal(req, *parallelism, *checkpoint, *out, *quiet)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wsrsexplore:", err)
	os.Exit(1)
}

func parseSpace(clusters, widths, regs, iq, rob, spec, policies, kernels string) (explore.Space, error) {
	var s explore.Space
	var err error
	if s.Clusters, err = parseInts("clusters", clusters); err != nil {
		return s, err
	}
	if s.Widths, err = parseInts("widths", widths); err != nil {
		return s, err
	}
	if s.Regs, err = parseInts("regs", regs); err != nil {
		return s, err
	}
	if s.IQSizes, err = parseInts("iq", iq); err != nil {
		return s, err
	}
	if s.ROBSizes, err = parseInts("rob", rob); err != nil {
		return s, err
	}
	s.Specialize = parseStrings(spec)
	s.Policies = parseStrings(policies)
	s.Kernels = parseStrings(kernels)
	return s, nil
}

func parseInts(axis, csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad value %q", axis, f)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseStrings(csv string) []string {
	var out []string
	for _, f := range strings.Split(csv, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// progressObserver narrates the search on stderr.
type progressObserver struct{ quiet bool }

func (o progressObserver) Phase(name string) {
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "wsrsexplore: phase %s\n", name)
	}
}

func (o progressObserver) Progress(evaluated, pruned, frontier int) {
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "\rwsrsexplore: %d evaluated, %d pruned, frontier %d ",
			evaluated, pruned, frontier)
	}
}

func runLocal(req explore.Request, parallelism int, checkpoint, out string, quiet bool) error {
	ev := &explore.LocalEvaluator{Parallelism: parallelism, Checkpoint: checkpoint}
	doc, err := explore.Run(context.Background(), req, ev, progressObserver{quiet: quiet})
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintln(os.Stderr)
	}
	return emit(doc, out)
}

func runRemote(addr string, req explore.Request, out string, quiet bool) error {
	ctx := context.Background()
	client := &serve.Client{Base: strings.TrimRight(addr, "/")}
	st, err := client.SubmitExplore(ctx, &serve.ExploreRequest{Request: req, Label: "wsrsexplore"})
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "wsrsexplore: accepted as %s (trace %s), %d cells max\n",
			st.ID, st.TraceID, st.CellsTotal)
		// Follow the SSE stream for live progress; the poll below owns
		// completion, so a dropped stream is harmless.
		_ = client.ExploreEvents(ctx, st.ID, func(ev serve.ExploreEvent) bool {
			switch ev.Type {
			case "phase":
				progressObserver{}.Phase(ev.Phase)
			case "progress":
				progressObserver{}.Progress(ev.Evaluated, ev.Pruned, ev.Frontier)
			}
			return true
		})
		fmt.Fprintln(os.Stderr)
	}
	final, err := client.WaitExplore(ctx, st.ID, 50*time.Millisecond)
	if err != nil {
		return err
	}
	if final.State != serve.StateDone {
		return fmt.Errorf("explore job %s ended %s: %s", final.ID, final.State, final.Error)
	}
	raw, err := client.Frontier(ctx, final.ID)
	if err != nil {
		return err
	}
	var doc explore.Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("frontier document: %w", err)
	}
	renderFrontier(&doc)
	if out != "" {
		// The served bytes are the artifact: write them verbatim so the
		// file is byte-identical to a local run of the same request.
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wsrsexplore: wrote %s\n", out)
	}
	return nil
}

func emit(doc *explore.Document, out string) error {
	renderFrontier(doc)
	if out == "" {
		return nil
	}
	raw, err := doc.Render()
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wsrsexplore: wrote %s\n", out)
	return nil
}

func renderFrontier(doc *explore.Document) {
	t := report.NewTable(
		fmt.Sprintf("Pareto frontier — %s over %d points (%d invalid, %d pruned, %d evaluated, %d dominated)",
			doc.Strategy, doc.RawPoints, doc.Skipped, len(doc.PrunedSet), doc.Evaluated, len(doc.Dominated)),
		"clusters", "width", "regs", "iq", "rob", "spec", "policy", "IPC", "pJ/inst", "area")
	for _, e := range doc.Frontier {
		p := e.Point
		t.AddRow(p.Clusters, p.Width, p.Regs, p.IQ, p.ROB, p.Specialize, p.Policy,
			fmt.Sprintf("%.4f", e.IPC), fmt.Sprintf("%.1f", e.EnergyPJ), fmt.Sprintf("%.0f", e.Area))
	}
	t.Render(os.Stdout)
}

// benchRun is one measured exploration in the -bench report.
type benchRun struct {
	Prefilter    bool    `json:"prefilter"`
	Selected     int     `json:"points_selected"`
	Pruned       int     `json:"points_pruned"`
	Evaluated    int     `json:"points_evaluated"`
	Frontier     int     `json:"frontier_size"`
	WallMs       float64 `json:"wall_ms"`
	PointsPerSec float64 `json:"points_per_sec"`
}

// benchReport is the committed BENCH_explore.json: the same space
// explored with and without the analytic pre-filter, the identical
// frontiers asserted, and the evaluation throughput of each run.
type benchReport struct {
	SpaceDigest       string     `json:"space_digest"`
	Strategy          string     `json:"strategy"`
	Warmup            uint64     `json:"warmup_insts"`
	Measure           uint64     `json:"measure_insts"`
	Runs              []benchRun `json:"runs"`
	FrontierIdentical bool       `json:"frontier_identical"`
	Speedup           float64    `json:"prefilter_speedup"`
}

func runBench(req explore.Request, parallelism int, out string, quiet bool) error {
	if out == "" {
		out = "BENCH_explore.json"
	}
	rep := benchReport{Strategy: req.Strategy, Warmup: req.Warmup, Measure: req.Measure}
	var frontiers [2]string
	for i, pf := range []bool{false, true} {
		r := req
		p := pf
		r.Prefilter = &p
		start := time.Now()
		doc, err := explore.Run(context.Background(), r, &explore.LocalEvaluator{Parallelism: parallelism},
			progressObserver{quiet: quiet})
		if err != nil {
			return fmt.Errorf("prefilter=%t: %w", pf, err)
		}
		if !quiet {
			fmt.Fprintln(os.Stderr)
		}
		wall := time.Since(start)
		rep.SpaceDigest = doc.SpaceDigest
		run := benchRun{
			Prefilter: pf, Selected: doc.Selected, Pruned: len(doc.PrunedSet),
			Evaluated: doc.Evaluated, Frontier: len(doc.Frontier),
			WallMs: float64(wall.Microseconds()) / 1000,
		}
		if wall > 0 {
			run.PointsPerSec = float64(doc.Evaluated) / wall.Seconds()
		}
		rep.Runs = append(rep.Runs, run)
		frontiers[i] = frontierKey(doc)
	}
	rep.FrontierIdentical = frontiers[0] == frontiers[1]
	if rep.Runs[1].WallMs > 0 {
		rep.Speedup = rep.Runs[0].WallMs / rep.Runs[1].WallMs
	}

	t := report.NewTable(
		fmt.Sprintf("explore throughput — %s space %s...", rep.Strategy, rep.SpaceDigest[:12]),
		"prefilter", "selected", "pruned", "evaluated", "frontier", "wall ms", "points/s")
	for _, r := range rep.Runs {
		t.AddRow(r.Prefilter, r.Selected, r.Pruned, r.Evaluated, r.Frontier,
			fmt.Sprintf("%.1f", r.WallMs), fmt.Sprintf("%.1f", r.PointsPerSec))
	}
	t.Render(os.Stdout)

	if !rep.FrontierIdentical {
		return fmt.Errorf("pre-filter changed the frontier — the safety property is violated")
	}
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
	fmt.Fprintf(os.Stderr, "wsrsexplore: wrote %s\n", out)
	return nil
}

// frontierKey reduces a document's frontier to a comparable identity:
// the ordered (digest, objectives) tuples.
func frontierKey(doc *explore.Document) string {
	var b strings.Builder
	for _, e := range doc.Frontier {
		fmt.Fprintf(&b, "%s|%g|%g|%g\n", e.Digest, e.IPC, e.EnergyPJ, e.Area)
	}
	return b.String()
}
