package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"wsrs"
	"wsrs/internal/cellcache"
)

// testServer spins up a daemon on an httptest listener and returns
// the client pointed at it. The caller owns Drain.
func testServer(t *testing.T, o Options) (*Server, *Client, *httptest.Server) {
	t.Helper()
	srv, err := New(o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, &Client{Base: ts.URL}, ts
}

const (
	testWarmup  = 1_000
	testMeasure = 5_000
)

func submitWait(t *testing.T, c *Client, req *JobRequest) JobStatus {
	t.Helper()
	ctx := context.Background()
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final, err := c.Wait(ctx, st.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("Wait(%s): %v", st.ID, err)
	}
	return final
}

// TestJobResultsMatchRunGrid is the end-to-end identity check: the
// results fetched through the job API must be byte-identical to a
// direct RunGrid run of the same cells.
func TestJobResultsMatchRunGrid(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 2})
	defer srv.Drain(context.Background())

	specs := []CellSpec{
		{Kernel: "gzip", Config: string(wsrs.ConfRR256)},
		{Kernel: "gzip", Config: string(wsrs.ConfWSRSRC512)},
		{Kernel: "mcf", Config: string(wsrs.ConfWSRSRC512), Seed: 7},
		{Kernel: "mcf", Config: string(wsrs.ConfWSRSRM512), Policy: "RC-bal"},
	}
	final := submitWait(t, client, &JobRequest{
		Cells: specs, Warmup: testWarmup, Measure: testMeasure,
	})
	if final.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", final.State, final.Error)
	}
	got, err := client.RawResults(context.Background(), final.ID)
	if err != nil {
		t.Fatalf("RawResults: %v", err)
	}

	cells := make([]wsrs.GridCell, len(specs))
	for i, s := range specs {
		cells[i] = wsrs.GridCell{
			Kernel: s.Kernel, Config: wsrs.ConfigName(s.Config),
			Policy: s.Policy, Seed: s.Seed,
		}
	}
	direct, err := wsrs.RunGrid(cells, wsrs.SimOpts{
		WarmupInsts: testWarmup, MeasureInsts: testMeasure,
	}, 2)
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	results := make([]wsrs.Result, len(direct))
	for i, g := range direct {
		results[i] = g.Result
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(results); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("job-API results differ from direct RunGrid:\n api: %.200s\ngrid: %.200s",
			got, want.Bytes())
	}
}

// TestNamedExperimentExpansion checks server-side expansion of a
// named experiment against the library driver's grid shape.
func TestNamedExperimentExpansion(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 4})
	defer srv.Drain(context.Background())

	final := submitWait(t, client, &JobRequest{
		Experiment: "figure5", Kernels: []string{"gzip"},
		Warmup: testWarmup, Measure: testMeasure,
	})
	if final.State != StateDone {
		t.Fatalf("figure5 job: state %s (%s)", final.State, final.Error)
	}
	if final.CellsTotal != 2 {
		t.Fatalf("figure5 over one kernel expanded to %d cells, want 2", final.CellsTotal)
	}
	for _, c := range final.Cells {
		if c.Cell.Config != string(wsrs.ConfWSRSRC512) && c.Cell.Config != string(wsrs.ConfWSRSRM512) {
			t.Fatalf("unexpected figure5 config %q", c.Cell.Config)
		}
	}

	energy := submitWait(t, client, &JobRequest{
		Experiment: "energy", Kernels: []string{"gzip"},
		Configs: []string{string(wsrs.ConfRR256)},
		Warmup:  testWarmup, Measure: testMeasure,
	})
	if energy.State != StateDone {
		t.Fatalf("energy job: state %s (%s)", energy.State, energy.Error)
	}
	if !energy.Cells[0].Cell.Telemetry {
		t.Fatal("energy experiment did not force telemetry on")
	}
	res, err := client.Results(context.Background(), energy.ID)
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	if res[0].Activity == nil {
		t.Fatal("energy result carries no activity counters")
	}
}

// TestCoalescing proves the thundering-herd property: with the lone
// worker pinned by a long blocker cell, N identical jobs submitted
// behind it must resolve through ONE simulation — one queued flight
// plus N-1 coalesced subscribers — and byte-identical results.
func TestCoalescing(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 1})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	// The blocker's window must outlast the five duplicate submissions
	// below by a wide margin: the allocation-free core simulates
	// ~150k instructions in single-digit milliseconds, which is the
	// same order as five HTTP round-trips, so a short blocker
	// intermittently finishes first and the herd resolves from the
	// cache instead of coalescing.
	blocker, err := client.Submit(ctx, &JobRequest{
		Cells:  []CellSpec{{Kernel: "mcf", Config: string(wsrs.ConfRR256)}},
		Warmup: 2_000, Measure: 2_000_000, Label: "blocker",
	})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	// The herd below must queue BEHIND the blocker: wait until the
	// lone worker has actually picked its simulation up before
	// submitting, or a fast worker could resolve the first duplicate
	// and serve the rest from the cache.
	waitCounter(t, client, mSims, 1)

	const dup = 5
	req := &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfWSRSRC512)}},
		Warmup: testWarmup, Measure: testMeasure,
	}
	ids := make([]string, dup)
	for i := 0; i < dup; i++ {
		st, err := client.Submit(ctx, req)
		if err != nil {
			t.Fatalf("submit dup %d: %v", i, err)
		}
		ids[i] = st.ID
	}

	var raw [][]byte
	coalesced, misses := 0, 0
	for _, id := range ids {
		final, err := client.Wait(ctx, id, time.Millisecond)
		if err != nil {
			t.Fatalf("Wait(%s): %v", id, err)
		}
		if final.State != StateDone {
			t.Fatalf("dup job %s: state %s (%s)", id, final.State, final.Error)
		}
		switch final.Cells[0].Cache {
		case CacheCoalesced:
			coalesced++
		case CacheMiss:
			misses++
		case CacheHit:
			t.Fatalf("dup job %s resolved from cache; the blocker did not hold the worker", id)
		}
		body, err := client.RawResults(ctx, id)
		if err != nil {
			t.Fatalf("RawResults(%s): %v", id, err)
		}
		raw = append(raw, body)
	}
	if misses != 1 || coalesced != dup-1 {
		t.Fatalf("dispositions: %d misses, %d coalesced; want 1 and %d", misses, coalesced, dup-1)
	}
	for i := 1; i < len(raw); i++ {
		if !bytes.Equal(raw[0], raw[i]) {
			t.Fatalf("coalesced job %d returned different bytes", i)
		}
	}

	// The daemon's own counters must agree: the herd cost one
	// simulation (plus the blocker's).
	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if _, err := client.Wait(ctx, blocker.ID, time.Millisecond); err != nil {
		t.Fatalf("wait blocker: %v", err)
	}
	if got := m[`wsrsd_coalesced_total`]; got != dup-1 {
		t.Fatalf("wsrsd_coalesced_total = %v, want %d", got, dup-1)
	}

	// A resubmission after completion is a cache hit, not a new
	// simulation.
	again := submitWait(t, client, req)
	if again.Cells[0].Cache != CacheHit {
		t.Fatalf("resubmitted cell disposition = %q, want hit", again.Cells[0].Cache)
	}
	m2, err := client.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if m2[`wsrsd_sims_total`] != 2 { // blocker + one dup flight
		t.Fatalf("wsrsd_sims_total = %v, want 2", m2[`wsrsd_sims_total`])
	}
	if m2[`wsrsd_cache_hits_total`] < 1 {
		t.Fatalf("wsrsd_cache_hits_total = %v, want >= 1", m2[`wsrsd_cache_hits_total`])
	}
}

// holdFirstPeer pins one pool worker: the first peer fetch it sees
// blocks until its flight is abandoned, so that cell's job stays live
// for as long as a test needs, without a long simulation. Every other
// fetch misses and falls through to local simulation.
type holdFirstPeer struct {
	once    sync.Once
	entered chan struct{}
}

func (p *holdFirstPeer) FetchPeer(ctx context.Context, digest string) (wsrs.Result, bool) {
	first := false
	p.once.Do(func() { first = true })
	if first {
		close(p.entered)
		<-ctx.Done()
	}
	return wsrs.Result{}, false
}

// TestHistoryEvictionSkipsLiveTasks pins the history cap: with a job
// held live at the head of the history, finished jobs and explore jobs
// behind it are still evicted, those that finished longest ago first.
// The terminal history of both kinds together never exceeds KeepJobs,
// the live job survives, evicted tasks 404, and the live job, once it
// ends, is the newest history entry rather than the first evicted.
func TestHistoryEvictionSkipsLiveTasks(t *testing.T) {
	peer := &holdFirstPeer{entered: make(chan struct{})}
	srv, client, _ := testServer(t, Options{Workers: 2, KeepJobs: 2, Peers: peer})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	small := &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfWSRSRC512)}},
		Warmup: testWarmup, Measure: testMeasure,
	}
	live, err := client.Submit(ctx, &JobRequest{
		Cells:  []CellSpec{{Kernel: "mcf", Config: string(wsrs.ConfRR256)}},
		Warmup: testWarmup, Measure: testMeasure, Label: "live",
	})
	if err != nil {
		t.Fatalf("submit live job: %v", err)
	}
	<-peer.entered                    // the live job's only cell now holds one worker
	defer client.Cancel(ctx, live.ID) // release it before the deferred drain

	// history lists both kinds, split into live and terminal IDs.
	history := func() (alive, ended []string) {
		t.Helper()
		var jobs []JobStatus
		var xs []ExploreStatus
		if err := client.getJSON(ctx, "/v1/jobs", &jobs); err != nil {
			t.Fatalf("list jobs: %v", err)
		}
		if err := client.getJSON(ctx, "/v1/explore", &xs); err != nil {
			t.Fatalf("list explores: %v", err)
		}
		add := func(id, state string) {
			if terminal(state) {
				ended = append(ended, id)
			} else {
				alive = append(alive, id)
			}
		}
		for _, st := range jobs {
			add(st.ID, st.State)
		}
		for _, st := range xs {
			add(st.ID, st.State)
		}
		return alive, ended
	}

	// Identical resubmissions are cache hits; the explores simulate on
	// the second worker.
	runJob := func() string { return submitWait(t, client, small).ID }
	runExplore := func() string { return submitWaitExplore(t, client, smallExplore()).ID }
	var ran []string
	for _, run := range []func() string{runJob, runExplore, runJob, runExplore, runJob} {
		ran = append(ran, run())
		alive, ended := history()
		if len(ended) > 2 {
			t.Fatalf("after %v: terminal history %v exceeds KeepJobs 2", ran, ended)
		}
		if len(alive) != 1 || alive[0] != live.ID {
			t.Fatalf("after %v: live tasks %v, want only %s", ran, alive, live.ID)
		}
	}
	_, ended := history()
	sort.Strings(ended)
	if want := []string{ran[4], ran[3]}; fmt.Sprint(ended) != fmt.Sprint(want) {
		t.Fatalf("kept terminal history %v, want the newest two %v", ended, want)
	}

	for _, id := range ran[:3] {
		var err error
		if strings.HasPrefix(id, "x-") {
			_, err = client.GetExplore(ctx, id)
		} else {
			_, err = client.Get(ctx, id)
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
			t.Fatalf("evicted %s: err = %v, want HTTP 404", id, err)
		}
	}

	if err := client.Cancel(ctx, live.ID); err != nil {
		t.Fatalf("cancel live job: %v", err)
	}
	if st, err := client.Wait(ctx, live.ID, time.Millisecond); err != nil || st.State != StateCanceled {
		t.Fatalf("live job after cancel: state %v err %v, want canceled", st.State, err)
	}
}

// TestDrainLosesNoJob submits a burst of jobs, immediately drains,
// and requires every accepted job to reach "done" with every cell
// resolved — then proves the daemon refuses new work and flushed the
// cache to disk.
func TestDrainLosesNoJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	srv, client, ts := testServer(t, Options{Workers: 2, CachePath: path})
	ctx := context.Background()

	var ids []string
	for i := 0; i < 4; i++ {
		st, err := client.Submit(ctx, &JobRequest{
			Cells: []CellSpec{
				{Kernel: "gzip", Config: string(wsrs.ConfRR256), Seed: int64(i + 1)},
				{Kernel: "mcf", Config: string(wsrs.ConfWSRSRC512), Seed: int64(i + 1)},
			},
			Warmup: testWarmup, Measure: testMeasure,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, id := range ids {
		st, err := client.Get(ctx, id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s drained to state %s (%s), want done", id, st.State, st.Error)
		}
		if st.CellsDone != st.CellsTotal {
			t.Fatalf("job %s: %d/%d cells done after drain", id, st.CellsDone, st.CellsTotal)
		}
	}

	// Draining daemon refuses new jobs with 503.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"cells":[{"kernel":"gzip","config":"RR 256"}]}`))
	if err != nil {
		t.Fatalf("post during drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: HTTP %d, want 503", resp.StatusCode)
	}

	// The flushed cache reloads with every simulated cell.
	reopened, err := cellcache.Open(path, 0)
	if err != nil {
		t.Fatalf("reopen cache: %v", err)
	}
	defer reopened.Close()
	if got := reopened.Len(); got != 8 {
		t.Fatalf("flushed cache holds %d entries, want 8", got)
	}
}

// TestValidationErrors checks the structured-400 contract: bad
// kernels, configs, policies and shapes are rejected up front with
// the offending field named and no job created.
func TestValidationErrors(t *testing.T) {
	srv, client, ts := testServer(t, Options{Workers: 1, MaxMeasure: 50_000})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	cases := []struct {
		name  string
		req   JobRequest
		field string
	}{
		{"unknown kernel", JobRequest{Cells: []CellSpec{{Kernel: "nope", Config: "RR 256"}}}, "cells[0].kernel"},
		{"unknown config", JobRequest{Cells: []CellSpec{{Kernel: "gzip", Config: "RR 9000"}}}, "cells[0].config"},
		{"unknown policy", JobRequest{Cells: []CellSpec{{Kernel: "gzip", Config: "RR 256", Policy: "XX"}}}, "cells[0].policy"},
		{"empty job", JobRequest{}, "cells"},
		{"unknown experiment", JobRequest{Experiment: "figure9"}, "experiment"},
		{"both shapes", JobRequest{Experiment: "figure4", Cells: []CellSpec{{Kernel: "gzip", Config: "RR 256"}}}, "experiment"},
		{"measure cap", JobRequest{Cells: []CellSpec{{Kernel: "gzip", Config: "RR 256"}}, Measure: 60_001}, "cells[0].measure"},
	}
	for _, tc := range cases {
		body, _ := json.Marshal(tc.req)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var re RequestError
		err = json.NewDecoder(resp.Body).Decode(&re)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
		if err != nil || re.Field != tc.field {
			t.Fatalf("%s: error field %q (decode err %v), want %q", tc.name, re.Field, err, tc.field)
		}
	}

	// Nothing above created a job.
	var jobs []JobStatus
	if err := client.getJSON(ctx, "/v1/jobs", &jobs); err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(jobs) != 0 {
		t.Fatalf("invalid requests created %d jobs", len(jobs))
	}
	if _, err := client.Get(ctx, "j-000042"); err == nil {
		t.Fatal("Get of unknown job did not fail")
	}
}

// TestAdmissionControl fills the queue and requires 429 +
// Retry-After; after the backlog clears, the same request is
// accepted.
func TestAdmissionControl(t *testing.T) {
	srv, client, ts := testServer(t, Options{Workers: 1, MaxQueuedCells: 1})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	first, err := client.Submit(ctx, &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfRR256)}},
		Warmup: 2_000, Measure: 150_000,
	})
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"cells":[{"kernel":"gzip","config":"RR 256"},{"kernel":"mcf","config":"RR 256"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow POST: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carried no Retry-After header")
	}
	if _, err := client.Wait(ctx, first.ID, time.Millisecond); err != nil {
		t.Fatalf("wait first: %v", err)
	}
	// Backlog cleared: the identical request is now admitted (and a
	// pure cache hit).
	again := submitWait(t, client, &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfRR256)}},
		Warmup: 2_000, Measure: 150_000,
	})
	if again.State != StateDone || again.Cells[0].Cache != CacheHit {
		t.Fatalf("post-backlog job: state %s, cache %q; want done/hit",
			again.State, again.Cells[0].Cache)
	}
}

// waitCounter polls /metrics until the named counter reaches at least
// want (the daemon-side way to know a simulation really started).
func waitCounter(t *testing.T, c *Client, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := c.Metrics(context.Background())
		if err == nil && m[name] >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("counter %s never reached %v (have %v)", name, want, m[name])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelStopsInFlightSimulation is the cancellation-latency test:
// DELETE on a job whose cell is mid-simulation must abort the
// simulation itself (not just drop queued cells) and free the worker
// promptly. The victim cell would simulate for minutes; the whole
// test must finish in seconds.
func TestCancelStopsInFlightSimulation(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 1})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	victim, err := client.Submit(ctx, &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfRR256)}},
		Warmup: 2_000, Measure: 500_000_000, Label: "doomed",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only cancel once the lone worker is inside the simulation.
	waitCounter(t, client, mSims, 1)

	canceledAt := time.Now()
	if err := client.Cancel(ctx, victim.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	final, err := client.Wait(ctx, victim.ID, time.Millisecond)
	if err != nil || final.State != StateCanceled {
		t.Fatalf("victim: state %v err %v, want canceled", final.State, err)
	}

	// The in-flight simulation must notice within its 4096-cycle poll
	// cadence — microseconds — so the canceled-sims counter moves and
	// the worker frees up almost immediately.
	waitCounter(t, client, mSimsCanceled, 1)
	if lat := time.Since(canceledAt); lat > 10*time.Second {
		t.Fatalf("cancellation took %v to reach the running simulation", lat)
	}

	// The freed worker proves it: a small job completes end to end.
	small := submitWait(t, client, &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfWSRSRC512)}},
		Warmup: testWarmup, Measure: testMeasure,
	})
	if small.State != StateDone {
		t.Fatalf("post-cancel job state = %s (%s), want done", small.State, small.Error)
	}
}

// peerVia adapts a Client into the PeerFetcher hook, exactly how a
// fleet member reaches a peer's cache tier.
type peerVia struct{ c *Client }

func (p peerVia) FetchPeer(ctx context.Context, digest string) (wsrs.Result, bool) {
	return p.c.FetchCache(ctx, digest)
}

// TestPeerCacheTier proves the peer-fetch tier: a cell already cached
// on daemon A is served to daemon B through GET /v1/cache/{digest}
// without B simulating anything, and B remembers it locally.
func TestPeerCacheTier(t *testing.T) {
	srvA, clientA, _ := testServer(t, Options{Workers: 1})
	defer srvA.Drain(context.Background())
	ctx := context.Background()

	req := &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfWSRSRC512)}},
		Warmup: testWarmup, Measure: testMeasure,
	}
	first := submitWait(t, clientA, req)
	if first.State != StateDone {
		t.Fatalf("seed job on A: %s (%s)", first.State, first.Error)
	}
	digest := first.Cells[0].Digest

	// The endpoint itself: hit and miss.
	res, ok := clientA.FetchCache(ctx, digest)
	if !ok || res.Cycles == 0 {
		t.Fatalf("FetchCache(%s) = %+v, %v; want the cached result", digest, res, ok)
	}
	if _, ok := clientA.FetchCache(ctx, "no-such-digest"); ok {
		t.Fatal("FetchCache of a bogus digest reported ok")
	}

	srvB, clientB, _ := testServer(t, Options{Workers: 1, Peers: peerVia{clientA}})
	defer srvB.Drain(context.Background())
	viaPeer := submitWait(t, clientB, req)
	if viaPeer.State != StateDone {
		t.Fatalf("job on B: %s (%s)", viaPeer.State, viaPeer.Error)
	}
	if got := viaPeer.Cells[0].Cache; got != CachePeer {
		t.Fatalf("cell disposition on B = %q, want %q", got, CachePeer)
	}
	m, err := clientB.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m[mSims] != 0 {
		t.Fatalf("B simulated %v cells; the peer tier should have served it", m[mSims])
	}
	if m[mPeerHits] != 1 {
		t.Fatalf("peer hits on B = %v, want 1", m[mPeerHits])
	}

	// B stored the fetched result: a resubmission is a plain local hit.
	again := submitWait(t, clientB, req)
	if got := again.Cells[0].Cache; got != CacheHit {
		t.Fatalf("resubmission disposition on B = %q, want %q", got, CacheHit)
	}

	// Byte identity survives the peer hop.
	rawA, err := clientA.RawResults(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := clientB.RawResults(ctx, viaPeer.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawA, rawB) {
		t.Fatal("peer-fetched results differ from the origin's bytes")
	}
}

// stubRunner is a canned CellRunner: deterministic results keyed by
// seed, call counting, and ctx sensitivity.
type stubRunner struct {
	mu    sync.Mutex
	calls int
}

func (r *stubRunner) RunCell(ctx context.Context, id cellcache.CellID) (wsrs.Result, time.Duration, error) {
	r.mu.Lock()
	r.calls++
	r.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return wsrs.Result{}, 0, err
	}
	return wsrs.Result{Name: id.Config, Cycles: 1000 + id.Seed, Insts: id.Measure, IPC: 2.0}, time.Millisecond, nil
}

// TestRunnerDelegation proves the coordinator hook: with a CellRunner
// configured, cache misses go through it instead of the local
// simulator, while the cache and coalescing layers stay in front.
func TestRunnerDelegation(t *testing.T) {
	runner := &stubRunner{}
	srv, client, _ := testServer(t, Options{Workers: 2, Runner: runner})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	st := submitWait(t, client, &JobRequest{
		Cells: []CellSpec{
			{Kernel: "gzip", Config: string(wsrs.ConfRR256)},
			{Kernel: "mcf", Config: string(wsrs.ConfWSRSRC512)},
		},
		Warmup: testWarmup, Measure: testMeasure,
	})
	if st.State != StateDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	if runner.calls != 2 {
		t.Fatalf("runner ran %d cells, want 2", runner.calls)
	}
	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m[mSims] != 0 || m[mRunnerCells] != 2 {
		t.Fatalf("sims=%v runner_cells=%v, want 0 and 2", m[mSims], m[mRunnerCells])
	}
	for _, c := range st.Cells {
		if c.Cycles != 1000+c.Cell.Seed {
			t.Fatalf("cell %d carries %d cycles, not the runner's result", c.Index, c.Cycles)
		}
	}

	// Identical resubmission: served from the cache, no new runner call.
	again := submitWait(t, client, &JobRequest{
		Cells: []CellSpec{
			{Kernel: "gzip", Config: string(wsrs.ConfRR256)},
			{Kernel: "mcf", Config: string(wsrs.ConfWSRSRC512)},
		},
		Warmup: testWarmup, Measure: testMeasure,
	})
	if again.Cells[0].Cache != CacheHit || runner.calls != 2 {
		t.Fatalf("resubmission: disposition %q, runner calls %d; want hit and 2",
			again.Cells[0].Cache, runner.calls)
	}
}

// TestCancel cancels a queued job and requires a terminal canceled
// state without the daemon wedging.
func TestCancel(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 1})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	blocker, err := client.Submit(ctx, &JobRequest{
		Cells:  []CellSpec{{Kernel: "mcf", Config: string(wsrs.ConfRR256)}},
		Warmup: 2_000, Measure: 150_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := client.Submit(ctx, &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfWSRR512)}},
		Warmup: testWarmup, Measure: testMeasure,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Cancel(ctx, victim.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	final, err := client.Wait(ctx, victim.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("Wait canceled: %v", err)
	}
	if final.State != StateCanceled {
		t.Fatalf("canceled job state = %s, want canceled", final.State)
	}
	if st, err := client.Wait(ctx, blocker.ID, time.Millisecond); err != nil || st.State != StateDone {
		t.Fatalf("blocker after cancel: %v / %v", st.State, err)
	}
}

// TestEventStream follows /events and requires one cell event per
// cell plus a terminal job event, with replay working for a client
// that attaches after completion.
func TestEventStream(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 2})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	st, err := client.Submit(ctx, &JobRequest{
		Cells: []CellSpec{
			{Kernel: "gzip", Config: string(wsrs.ConfRR256)},
			{Kernel: "gzip", Config: string(wsrs.ConfWSRR384)},
		},
		Warmup: testWarmup, Measure: testMeasure,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	var mu sync.Mutex
	err = client.Events(ctx, st.ID, func(ev Event) bool {
		mu.Lock()
		counts[ev.Type]++
		done := ev.Type == "job"
		mu.Unlock()
		return !done
	})
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if counts["cell"] != 2 || counts["job"] != 1 {
		t.Fatalf("live event counts = %v, want 2 cell + 1 job", counts)
	}

	// Late attach: the full log replays, then the stream ends
	// because the job is terminal.
	replay := 0
	err = client.Events(ctx, st.ID, func(ev Event) bool { replay++; return true })
	if err != nil {
		t.Fatalf("replay Events: %v", err)
	}
	if replay != 3 {
		t.Fatalf("replayed %d events, want 3", replay)
	}
}

// TestResultsConflictBeforeDone requires /results to refuse (409)
// while the job is still running.
func TestResultsConflictBeforeDone(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 1})
	defer srv.Drain(context.Background())

	st, err := client.Submit(context.Background(), &JobRequest{
		Cells:  []CellSpec{{Kernel: "mcf", Config: string(wsrs.ConfRR256), Seed: 3}},
		Warmup: 2_000, Measure: 150_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Results(context.Background(), st.ID); err == nil {
		t.Fatal("Results of a running job did not 409")
	} else if ae, ok := err.(*APIError); !ok || ae.Status != http.StatusConflict {
		t.Fatalf("Results of a running job: %v, want HTTP 409", err)
	}
	if _, err := client.Wait(context.Background(), st.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestHandlerDiagnosticRoutes pins the diagnostic surface Handler
// mounts next to the job API: the daemon registry's exposition at
// /metrics, expvar JSON at /debug/vars, the pprof index, the one-line
// index at "/", and 404 for anything else — including the /manifest
// route a batch grid run does not serve here.
func TestHandlerDiagnosticRoutes(t *testing.T) {
	srv, _, ts := testServer(t, Options{Workers: 1})
	defer srv.Drain(context.Background())

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return resp, body.String()
	}

	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics: content type %q is not the text exposition format", ct)
	}
	if !strings.Contains(body, "# TYPE wsrsd_") {
		t.Errorf("/metrics: no wsrsd_ family in:\n%s", body)
	}

	resp, body = get("/debug/vars")
	var vars map[string]json.RawMessage
	if resp.StatusCode != http.StatusOK || json.Unmarshal([]byte(body), &vars) != nil || vars["memstats"] == nil {
		t.Errorf("/debug/vars: status %d, body is not the expvar JSON map", resp.StatusCode)
	}

	if resp, _ = get("/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/: status %d", resp.StatusCode)
	}

	resp, body = get("/")
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(body, "wsrsd: POST /v1/jobs") {
		t.Errorf("/: status %d, body %q is not the index line", resp.StatusCode, body)
	}

	for _, path := range []string{"/manifest", "/no/such/route"} {
		if resp, _ = get(path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}
