package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"time"

	"wsrs/internal/explore"
	"wsrs/internal/report"
	"wsrs/internal/serve"
)

// exploreDupRun is one submission of the duplicate-explore check.
type exploreDupRun struct {
	ID        string  `json:"id"`
	State     string  `json:"state"`
	Evaluated int     `json:"points_evaluated"`
	Pruned    int     `json:"points_pruned"`
	Frontier  int     `json:"frontier_size"`
	CacheHits int64   `json:"cache_hits"`
	WallMs    float64 `json:"wall_ms"`
}

// exploreDupReport is the duplicate-explore verdict: the same
// exploration submitted twice, the rerun expected to resolve from the
// daemon's content-addressed result cache and still serve the same
// frontier bytes.
type exploreDupReport struct {
	SpaceDigest    string          `json:"space_digest"`
	Runs           []exploreDupRun `json:"runs"`
	BytesIdentical bool            `json:"bytes_identical"`
	CacheHitsDelta float64         `json:"cache_hits_delta"`
}

// runExploreDup submits the same exploration twice against a live
// daemon and asserts the caching contract: the rerun must take cache
// hits (the daemon-side wsrsd_cache_hits_total counter moves by at
// least the rerun's own hit count) and the two frontier documents must
// be byte-identical. Any violation is fatal — CI's explore smoke runs
// this (wsrsload -explore-dup) against a live wsrsd.
func runExploreDup(ctx context.Context, logger *slog.Logger, client *serve.Client,
	warmup, measure uint64, out string) error {
	req := explore.SmokeRequest()
	if warmup > 0 {
		req.Warmup = warmup
	}
	if measure > 0 {
		req.Measure = measure
	}

	before, err := counterTotal(ctx, client, "wsrsd_cache_hits_total")
	if err != nil {
		return err
	}
	var rep exploreDupReport
	var docs [2][]byte
	for i := 0; i < 2; i++ {
		start := time.Now()
		st, err := client.SubmitExplore(ctx, &serve.ExploreRequest{Request: req, Label: "wsrsload-dup"})
		if err != nil {
			return fmt.Errorf("explore submission %d: %w", i+1, err)
		}
		final, err := client.WaitExplore(ctx, st.ID, 20*time.Millisecond)
		if err != nil {
			return fmt.Errorf("explore %s: %w", st.ID, err)
		}
		if final.State != serve.StateDone {
			return fmt.Errorf("explore %s ended %s: %s", final.ID, final.State, final.Error)
		}
		if docs[i], err = client.Frontier(ctx, final.ID); err != nil {
			return fmt.Errorf("explore %s frontier: %w", final.ID, err)
		}
		rep.SpaceDigest = final.SpaceDigest
		rep.Runs = append(rep.Runs, exploreDupRun{
			ID: final.ID, State: final.State,
			Evaluated: final.Evaluated, Pruned: final.Pruned,
			Frontier: final.FrontierSize, CacheHits: final.CacheHits,
			WallMs: float64(time.Since(start).Microseconds()) / 1000,
		})
	}
	after, err := counterTotal(ctx, client, "wsrsd_cache_hits_total")
	if err != nil {
		return err
	}
	rep.BytesIdentical = bytes.Equal(docs[0], docs[1])
	rep.CacheHitsDelta = after - before

	t := report.NewTable(
		fmt.Sprintf("duplicate explore — space %s...", rep.SpaceDigest[:12]),
		"run", "id", "evaluated", "pruned", "frontier", "cache hits", "wall ms")
	for i, r := range rep.Runs {
		t.AddRow(i+1, r.ID, r.Evaluated, r.Pruned, r.Frontier, r.CacheHits,
			fmt.Sprintf("%.1f", r.WallMs))
	}
	t.Render(os.Stdout)

	if !rep.BytesIdentical {
		return fmt.Errorf("duplicate explore served different frontier bytes")
	}
	if rep.Runs[1].CacheHits == 0 {
		return fmt.Errorf("duplicate explore took zero cache hits; the result cache is not being reused")
	}
	if rep.CacheHitsDelta < float64(rep.Runs[1].CacheHits) {
		return fmt.Errorf("wsrsd_cache_hits_total moved by %.0f, below the rerun's %d hits",
			rep.CacheHitsDelta, rep.Runs[1].CacheHits)
	}
	logger.Info("duplicate explore OK",
		slog.String("space", rep.SpaceDigest[:12]),
		slog.Int64("rerun_cache_hits", rep.Runs[1].CacheHits),
		slog.Float64("counter_delta", rep.CacheHitsDelta))
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

// counterTotal sums a counter family (across label sets) from the
// daemon's /metrics.
func counterTotal(ctx context.Context, client *serve.Client, name string) (float64, error) {
	m, err := client.Metrics(ctx)
	if err != nil {
		return 0, err
	}
	var total float64
	for k, v := range m {
		if k == name || (len(k) > len(name) && k[:len(name)] == name && k[len(name)] == '{') {
			total += v
		}
	}
	return total, nil
}
