package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"wsrs"
	"wsrs/internal/otrace"
	"wsrs/internal/serve"
)

// The service's default windows (a job that names none gets these).
const (
	serveWarmup  = 20_000
	serveMeasure = 60_000
	// identitySamples is how many cold cells per run are re-simulated
	// in process after the timed window and compared byte for byte
	// with the daemon's /results.
	identitySamples = 4
)

// setupRepeats is how many times a serve-mix run sets up a daemon;
// setup_s is the median.
const setupRepeats = 5

// serveWorkload is the serve-mix workload: a fresh in-process daemon
// on a loopback listener, driven through serve.Client by a closed loop
// of two clients over the seeded cold/warm/explore sequence.
type serveWorkload struct{}

// daemon is one memory-only wsrsd instance on a loopback listener.
type daemon struct {
	srv *serve.Server
	hs  *http.Server
	cl  *serve.Client
}

func startDaemon(rec *otrace.Recorder) (*daemon, error) {
	srv, err := serve.New(serve.Options{Workers: workers, Tracer: rec})
	if err != nil {
		return nil, err
	}
	addr, hs, err := serve.Listen("127.0.0.1:0", srv.Handler())
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	d := &daemon{srv: srv, hs: hs, cl: &serve.Client{Base: "http://" + addr}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.cl.WaitReady(ctx, time.Millisecond); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the daemon and closes its listener, waiting for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Drain(ctx) // memory-only cache: nothing to flush
	_ = d.hs.Shutdown(ctx)
}

// setup starts a daemon and warms the trace cache the way a
// long-running daemon's earlier traffic would have: one cell per
// kernel at the service windows, simulated in process. In a traced
// run each kernel's functional simulator is first drained on its own
// so trace build can be timed apart from the pipeline.
func (serveWorkload) setup(seed int64, rec *otrace.Recorder, out *outcome) (*daemon, error) {
	wsrs.ResetTraceCache()
	if rec != nil {
		root := otrace.Ctx{Trace: rec.NewTrace()}
		t0 := otrace.Now()
		var uops uint64
		for _, k := range allKernels() {
			n, err := drainFuncsim(k, serveWarmup+serveMeasure, rec, root)
			if err != nil {
				return nil, err
			}
			uops += n
		}
		ms := float64(otrace.Now()-t0) / 1e6
		out.layer["funcsim.build_ms"] = ms
		out.layer["funcsim.muops_per_s"] = float64(uops) / ms / 1e3
	}
	d, err := startDaemon(rec)
	if err != nil {
		return nil, err
	}
	var cells []wsrs.GridCell
	for _, k := range allKernels() {
		cells = append(cells, wsrs.GridCell{Kernel: k, Config: wsrs.Figure4Configs()[0]})
	}
	_, err = wsrs.RunGrid(cells, wsrs.SimOpts{WarmupInsts: serveWarmup, MeasureInsts: serveMeasure,
		Seed: derive(seed, streamSample, 0, 0)}, workers)
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// sample is the client's record of one request.
type sample struct {
	req   request
	trace otrace.TraceID // traced batches: the request's trace

	ms, submitMs, waitMs, resultsMs float64
	disposition                     string // cache disposition of a job's cell
	body                            []byte // job: /results bytes; explore: frontier bytes
	cycles                          int64  // job: measured cycles of its cell
	insts                           uint64 // job: measured instructions of its cell
	status                          *serve.ExploreStatus
	phaseAt                         map[string]time.Time // explore SSE phase arrivals
	refused                         bool                 // HTTP 429
	err                             error
}

// client is one closed-loop client with its own connection.
type client struct {
	c   *serve.Client
	rec *otrace.Recorder // nil in the untraced half
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{c: &serve.Client{Base: base, HTTP: &http.Client{Transport: tr}}}
}

// span runs fn inside a client span (when traced) whose context is
// propagated to the daemon, and returns fn's wall time in ms.
func (c *client) span(ctx context.Context, name string, parent otrace.Ctx, fn func(context.Context) error) (float64, error) {
	t0 := time.Now()
	if c.rec == nil {
		err := fn(ctx)
		return ms(time.Since(t0)), err
	}
	sp := c.rec.Begin(name, parent)
	err := fn(otrace.ContextWith(ctx, sp.Ctx()))
	c.rec.End(&sp)
	return ms(time.Since(t0)), err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (c *client) do(ctx context.Context, r request) sample {
	s := sample{req: r}
	var root otrace.Span
	if c.rec != nil {
		root = c.rec.Begin("client."+r.Kind.String(), otrace.Ctx{})
		s.trace = root.Trace
	}
	t0 := time.Now()
	if r.Kind == kindExplore {
		c.explore(ctx, root.Ctx(), &s)
	} else {
		c.job(ctx, root.Ctx(), &s)
	}
	s.ms = ms(time.Since(t0))
	if c.rec != nil {
		c.rec.End(&root)
	}
	var ae *serve.APIError
	s.refused = errors.As(s.err, &ae) && ae.Status == http.StatusTooManyRequests
	return s
}

// job submits one single-cell job, follows its SSE event stream until
// the terminal event (so completion is seen when it happens, not at a
// polling step), then reads /results.
func (c *client) job(ctx context.Context, root otrace.Ctx, s *sample) {
	var id string
	s.submitMs, s.err = c.span(ctx, "client.submit", root, func(ctx context.Context) error {
		st, err := c.c.Submit(ctx, &serve.JobRequest{Cells: []serve.CellSpec{s.req.Cell}})
		id = st.ID
		return err
	})
	if s.err != nil {
		return
	}
	var final *serve.JobStatus
	s.waitMs, s.err = c.span(ctx, "client.wait", root, func(ctx context.Context) error {
		return c.c.Events(ctx, id, func(ev serve.Event) bool {
			if ev.Type == "job" {
				final = ev.Job
			}
			return true
		})
	})
	if s.err == nil && (final == nil || final.State != serve.StateDone || len(final.Cells) != 1) {
		s.err = fmt.Errorf("job %s did not finish done: %+v", id, final)
	}
	if s.err != nil {
		return
	}
	s.disposition = final.Cells[0].Cache
	s.resultsMs, s.err = c.span(ctx, "client.results", root, func(ctx context.Context) error {
		var err error
		s.body, err = c.c.RawResults(ctx, id)
		return err
	})
}

// explore submits one exploration, stamps the arrival of every SSE
// phase event, and reads the frontier document.
func (c *client) explore(ctx context.Context, root otrace.Ctx, s *sample) {
	var id string
	s.submitMs, s.err = c.span(ctx, "client.submit", root, func(ctx context.Context) error {
		st, err := c.c.SubmitExplore(ctx, &serve.ExploreRequest{Request: exploreRequest(serveExploreKernels, s.req.ExploreSeed)})
		id = st.ID
		return err
	})
	if s.err != nil {
		return
	}
	s.phaseAt = map[string]time.Time{}
	s.waitMs, s.err = c.span(ctx, "client.wait", root, func(ctx context.Context) error {
		return c.c.ExploreEvents(ctx, id, func(ev serve.ExploreEvent) bool {
			switch ev.Type {
			case "phase":
				s.phaseAt[ev.Phase] = time.Now()
			case "job":
				s.phaseAt["end"] = time.Now()
				s.status = ev.Job
			}
			return true
		})
	})
	if s.err == nil && (s.status == nil || s.status.State != serve.StateDone || s.status.FrontierSize == 0) {
		s.err = fmt.Errorf("explore %s did not finish done with a frontier: %+v", id, s.status)
	}
	if c.rec != nil {
		c.phaseSpans(root, s.phaseAt)
	}
	if s.err != nil {
		return
	}
	s.resultsMs, s.err = c.span(ctx, "client.results", root, func(ctx context.Context) error {
		var err error
		s.body, err = c.c.Frontier(ctx, id)
		return err
	})
}

// explorePhases are the explore SSE phases in the order they arrive;
// "end" stamps the terminal job event.
var explorePhases = []string{"enumerate", "prefilter", "evaluate", "frontier", "end"}

// phaseSpans records one client span per explore phase, from the
// arrival of its SSE event to the arrival of the next one.
func (c *client) phaseSpans(root otrace.Ctx, at map[string]time.Time) {
	for i := 0; i+1 < len(explorePhases); i++ {
		from, ok1 := at[explorePhases[i]]
		to, ok2 := at[explorePhases[i+1]]
		if ok1 && ok2 {
			sp := c.rec.Make("client.explore."+explorePhases[i], root, otraceAt(from), otraceAt(to))
			c.rec.Append(&sp)
		}
	}
}

// batchRun is one batch's record: its samples and the /metrics
// counter deltas across it.
type batchRun struct {
	start, end time.Time
	samples    []sample
	traced     bool
	delta      map[string]float64
}

func (b batchRun) wall() float64 { return b.end.Sub(b.start).Seconds() }

// runBatch sends batch b through the two clients in sequence order;
// each client takes the next request as soon as its previous one
// completed, and the batch ends when both are idle.
func runBatch(ctx context.Context, seed int64, b int, clients []*client) batchRun {
	seq := genBatch(seed, b)
	run := batchRun{start: time.Now(), samples: make([]sample, len(seq))}
	next := make(chan int)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := range next {
				run.samples[i] = c.do(ctx, seq[i])
			}
		}(c)
	}
	for i := range seq {
		next <- i
	}
	close(next)
	wg.Wait()
	run.end = time.Now()
	return run
}

// pick returns the batches recorded with (traced) or without client
// tracing.
func pick(batches []batchRun, traced bool) []batchRun {
	var out []batchRun
	for _, b := range batches {
		if b.traced == traced {
			out = append(out, b)
		}
	}
	return out
}

func walls(batches []batchRun) []float64 {
	var w []float64
	for _, b := range batches {
		w = append(w, b.wall())
	}
	return w
}

// Counter series the traffic check reads from /metrics.
const (
	mSims      = "wsrsd_sims_total"
	mCacheHits = "wsrsd_cache_hits_total"
	mCoalesced = "wsrsd_coalesced_total"
	mRejected  = `wsrsd_jobs_total{outcome="rejected"}`
)

// timed runs batches until the time is spent. With a tracer, odd
// batches are traced: alternating keeps host-speed drift out of the
// traced/untraced comparison.
func (serveWorkload) timed(ctx context.Context, d *daemon, seed int64, seconds float64, tracer *otrace.Recorder) ([]batchRun, error) {
	clients := make([]*client, workers)
	for i := range clients {
		clients[i] = newClient(d.cl.Base)
	}
	defer func() {
		for _, c := range clients {
			c.c.HTTP.CloseIdleConnections()
		}
	}()
	var batches []batchRun
	before, err := d.cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for b := 0; len(batches) < 2 || time.Since(t0).Seconds() < seconds; b++ {
		traced := tracer != nil && b%2 == 1
		for _, c := range clients {
			c.rec = nil
			if traced {
				c.rec = tracer
			}
		}
		run := runBatch(ctx, seed, b, clients)
		after, err := d.cl.Metrics(ctx)
		if err != nil {
			return nil, err
		}
		run.traced = traced
		run.delta = map[string]float64{}
		for _, m := range []string{mSims, mCacheHits, mCoalesced, mRejected} {
			run.delta[m] = after[m] - before[m]
		}
		before = after
		batches = append(batches, run)
	}
	return batches, nil
}

func (w serveWorkload) run(seed int64, seconds float64, traced bool) (*outcome, error) {
	ctx := context.Background()
	out := newOutcome()
	var rec *otrace.Recorder
	if traced {
		rec = otrace.NewRecorder(1 << 16)
	}
	var setups []float64
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if d, err = w.setup(seed, rec, out); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()
	out.e2e["setup_s"] = median(setups)
	out.notes["setup_s"] = fmt.Sprintf("median of %.4f s; the first from process start", setups)

	batches, err := w.timed(ctx, d, seed, seconds, rec)
	if err != nil {
		return nil, err
	}
	chk := newServeChecker(out)
	for _, b := range batches {
		chk.batch(b)
	}
	plain := pick(batches, false)
	w.endToEnd(out, plain)
	if traced {
		tr := pick(batches, true)
		out.rec = rec
		out.keep = map[otrace.TraceID]bool{}
		for _, sp := range rec.Snapshot() {
			if sp.Name == "funcsim.drain" {
				out.keep[sp.Trace] = true
			}
		}
		for _, b := range tr {
			for _, s := range b.samples {
				out.keep[s.trace] = true
			}
		}
		w.layers(out, tr, rec.Snapshot())
		out.layer["trace.overhead_share"] = median(walls(tr))/median(walls(plain)) - 1
	}

	// Outside the timed window: re-simulate a seeded sample of cold
	// cells in process and compare with the daemon's bytes.
	chk.identity(seed)
	out.digest = chk.digest(batches[0])
	want, err := recordedDigest("serve-mix")
	if err != nil {
		return nil, err
	}
	if seed == defaultSeed && want != "" && out.digest != want {
		out.fail("results digest %s differs from the one recorded for seed %d (%s)", out.digest, defaultSeed, want)
	}
	return out, nil
}

// serveChecker verifies a serve-mix run's outputs and traffic.
type serveChecker struct {
	out  *outcome
	body map[serve.CellSpec][]byte // first /results bytes seen per cell
	cold []serve.CellSpec          // cold cells, in completion order
}

func newServeChecker(out *outcome) *serveChecker {
	return &serveChecker{out: out, body: map[serve.CellSpec][]byte{}}
}

// batch checks one batch: every request succeeded, every duplicate
// got its original's bytes, and the daemon's counters moved exactly as
// the traffic sent should move them. It also decodes each job's cycle
// and instruction counts, outside the timed requests.
func (k *serveChecker) batch(b batchRun) {
	var coldSent, warmSent, refused, exploreSims, exploreHits float64
	for i := range b.samples {
		s := &b.samples[i]
		k.out.attempted++
		if s.refused {
			refused++
		}
		if s.err == nil && s.req.Kind != kindExplore {
			var rs []wsrs.Result
			if s.err = json.Unmarshal(s.body, &rs); s.err == nil && len(rs) != 1 {
				s.err = fmt.Errorf("/results holds %d results, want 1", len(rs))
			}
			if s.err == nil {
				s.cycles, s.insts = rs[0].Cycles, rs[0].Insts
			}
		}
		if s.err != nil {
			k.out.fail("%s request: %v", s.req.Kind, s.err)
			continue
		}
		if s.req.Kind == kindExplore {
			exploreSims += float64(s.status.Evaluated*len(serveExploreKernels)) - float64(s.status.CacheHits)
			exploreHits += float64(s.status.CacheHits)
			continue
		}
		if s.req.Kind == kindCold {
			coldSent++
			k.cold = append(k.cold, s.req.Cell)
		} else {
			warmSent++
		}
		if prev, ok := k.body[s.req.Cell]; !ok {
			k.body[s.req.Cell] = s.body
		} else if !bytes.Equal(prev, s.body) {
			k.out.fail("duplicate of %+v returned different /results bytes", s.req.Cell)
		}
	}
	if got := b.delta[mSims]; got != coldSent+exploreSims {
		k.out.fail("traffic: %s moved by %v, want %v cold cells + %v explore cells", mSims, got, coldSent, exploreSims)
	}
	if got := b.delta[mCacheHits] + b.delta[mCoalesced]; got != warmSent+exploreHits {
		k.out.fail("traffic: cache hits + coalesced moved by %v, want %v warm jobs + %v explore cache hits", got, warmSent, exploreHits)
	}
	if got := b.delta[mRejected]; got != refused {
		k.out.fail("traffic: %s moved by %v, clients saw %v refusals", mRejected, got, refused)
	}
}

// identity re-simulates a seeded sample of cold cells with wsrs.RunGrid
// and compares the encoding with the daemon's /results bytes.
func (k *serveChecker) identity(seed int64) {
	rng := rand.New(rand.NewSource(derive(seed, streamSample, 0, 1)))
	for i := 0; i < identitySamples && len(k.cold) > 0; i++ {
		c := k.cold[rng.Intn(len(k.cold))]
		k.out.attempted++
		res, err := wsrs.RunGrid([]wsrs.GridCell{{Kernel: c.Kernel, Config: wsrs.ConfigName(c.Config), Seed: c.Seed}},
			wsrs.SimOpts{WarmupInsts: serveWarmup, MeasureInsts: serveMeasure, Seed: c.Seed}, 1)
		if err != nil {
			k.out.fail("in-process run of %+v: %v", c, err)
			continue
		}
		var want bytes.Buffer
		_ = json.NewEncoder(&want).Encode([]wsrs.Result{res[0].Result})
		if !bytes.Equal(want.Bytes(), k.body[c]) {
			k.out.fail("daemon /results for %+v differ from in-process wsrs.RunGrid", c)
		}
	}
}

// digest covers batch 0, whose content is fixed by the seed: every
// cold job's /results bytes and every explore's frontier bytes, in
// sequence order.
func (k *serveChecker) digest(b batchRun) string {
	d := newDigester()
	for _, s := range b.samples {
		if s.req.Kind != kindWarm {
			d.bytes(s.body)
		}
	}
	return d.sum()
}

// endToEnd reports the untraced batches. Throughputs are medians of
// per-batch rates, so a burst of host contention that slows a few
// batches does not move them.
func (serveWorkload) endToEnd(out *outcome, batches []batchRun) {
	var cold, warm, explores, mips, rate, exploreShare []float64
	for _, b := range batches {
		var insts, exploreInsts float64
		done := 0
		for _, s := range b.samples {
			if s.err != nil {
				continue
			}
			done++
			switch {
			case s.req.Kind == kindExplore:
				explores = append(explores, s.ms)
				cells := s.status.Evaluated*len(serveExploreKernels) - int(s.status.CacheHits)
				exploreInsts += float64(cells) * 10_000 // the explore windows: 2 000 + 8 000
			case s.disposition == serve.CacheMiss:
				cold = append(cold, s.ms)
				insts += float64(serveWarmup + s.insts)
			default:
				warm = append(warm, s.ms)
			}
		}
		insts += exploreInsts
		exploreShare = append(exploreShare, exploreInsts/insts)
		mips = append(mips, insts/b.wall()/1e6)
		rate = append(rate, float64(done)/b.wall())
	}
	out.e2e["grid_wall_s"] = median(walls(batches))
	out.notes["grid_wall_s"] = fmt.Sprintf("median of %d batches of %d requests", len(batches), batchLen)
	out.e2e["sim_minst_per_s"] = median(mips)
	out.notes["sim_minst_per_s"] = fmt.Sprintf("explores simulated %.0f%% of the instructions", 100*median(exploreShare))
	out.timing("job_cold", cold)
	out.timing("job_warm", warm)
	out.e2e["explore_p50_ms"] = median(explores)
	out.notes["explore_p50_ms"] = fmt.Sprintf("n=%d", len(explores))
	out.e2e["jobs_per_s"] = median(rate)
}

// layers splits the traced batches across the layers. Client spans and
// the daemon's lifecycle spans share one recorder and one trace per
// request, so each job's server phases are matched to its client
// latency exactly.
func (serveWorkload) layers(out *outcome, batches []batchRun, spans []otrace.Span) {
	byTrace := map[otrace.TraceID][]otrace.Span{}
	var simulate []otrace.Span
	for _, sp := range spans {
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
		if sp.Name == "simulate" {
			simulate = append(simulate, sp)
		}
	}
	type perKind struct {
		lat       map[string][]float64
		unacc, cl float64
	}
	kinds := map[string]*perKind{}
	for _, k := range serveKinds {
		kinds[k] = &perKind{lat: map[string][]float64{}}
	}
	var cellMs []float64
	var simNs, cycles, insts float64
	var prefilter, evaluate, frontier []float64
	var last *serve.ExploreStatus
	for _, b := range batches {
		for _, s := range b.samples {
			if s.err != nil {
				continue
			}
			if s.req.Kind == kindExplore {
				prefilter = append(prefilter, ms(s.phaseAt["evaluate"].Sub(s.phaseAt["prefilter"])))
				evaluate = append(evaluate, ms(s.phaseAt["frontier"].Sub(s.phaseAt["evaluate"])))
				frontier = append(frontier, ms(s.phaseAt["end"].Sub(s.phaseAt["frontier"])))
				last = s.status
				continue
			}
			k := kinds["warm"]
			if s.disposition == serve.CacheMiss {
				k = kinds["cold"]
			}
			phase := map[string]float64{}
			for _, sp := range byTrace[s.trace] {
				phase[sp.Name] += float64(sp.Dur()) / 1e6
			}
			total := phase["job"]
			server := phase["queue.wait"] + phase["coalesce.wait"] + phase["cache.lookup"] + phase["simulate"]
			for name, v := range map[string]float64{
				"submit": s.submitMs, "wait": s.waitMs, "results": s.resultsMs,
				"queue": phase["queue.wait"], "coalesce": phase["coalesce.wait"],
				"cache": phase["cache.lookup"], "simulate": phase["simulate"],
				"total": total, "transport": s.ms - total,
			} {
				k.lat[name] = append(k.lat[name], v)
			}
			k.unacc += total - server
			k.cl += s.ms
			if s.disposition == serve.CacheMiss && phase["simulate"] > 0 {
				cellMs = append(cellMs, phase["simulate"])
				simNs += phase["simulate"] * 1e6
				cycles += float64(s.cycles)
				insts += float64(serveWarmup + s.insts)
			}
		}
	}
	l := out.layer
	for name, k := range kinds {
		for span, xs := range k.lat {
			l["serve."+span+"_ms_p50."+name] = median(xs)
		}
		if k.cl > 0 {
			l["serve.unaccounted_share."+name] = k.unacc / k.cl
		}
		out.notes["serve.total_ms_p50."+name] = fmt.Sprintf("n=%d", len(k.lat["total"]))
	}

	st := wsrs.TraceStats()
	l["tracecache.misses"] = float64(st.Misses)
	l["tracecache.hits"] = float64(st.Hits)
	l["tracecache.uops"] = float64(st.Ops)
	l["pipeline.cell_ms_p50"] = median(cellMs)
	l["pipeline.cell_ms_max"] = percentile(cellMs, 100)
	l["pipeline.host_ns_per_cycle"] = simNs / cycles
	l["pipeline.host_ns_per_inst"] = simNs / insts
	var sc, si float64
	for _, s := range batches[0].samples {
		if s.err == nil && s.req.Kind == kindCold {
			sc += float64(s.cycles)
			si += float64(s.insts)
		}
	}
	l["pipeline.sim_cycles"] = sc
	l["pipeline.sim_insts"] = si

	// The daemon's worker pool is the grid layer here: busy share and
	// per-batch tail from the simulate spans inside each batch.
	var busy, tail []float64
	for _, b := range batches {
		lo, hi := otraceAt(b.start), otraceAt(b.end)
		var sum float64
		for _, sp := range simulate {
			if sp.Start >= lo && sp.End <= hi {
				sum += float64(sp.Dur()) / 1e6
			}
		}
		wallMs := b.wall() * 1e3
		busy = append(busy, sum/(wallMs*workers))
		tail = append(tail, wallMs-sum/workers)
	}
	l["grid.worker_busy_share"] = median(busy)
	l["grid.tail_ms"] = median(tail)

	delta := map[string]float64{}
	for _, b := range batches {
		for m, v := range b.delta {
			delta[m] += v
		}
	}
	l["serve.sims"] = delta[mSims]
	l["serve.cache_hits"] = delta[mCacheHits]
	l["serve.coalesced"] = delta[mCoalesced]
	l["serve.rejected"] = delta[mRejected]
	base := delta[mSims] + delta[mCacheHits] + delta[mCoalesced]
	l["serve.cache_hit_ratio_base"] = base
	if base > 0 {
		l["serve.cache_hit_ratio"] = delta[mCacheHits] / base
	}

	l["explore.prefilter_ms"] = median(prefilter)
	l["explore.evaluate_ms"] = median(evaluate)
	l["explore.frontier_ms"] = median(frontier)
	if last != nil {
		l["explore.points_evaluated"] = float64(last.Evaluated)
		l["explore.points_pruned"] = float64(last.Pruned)
		l["explore.frontier_size"] = float64(last.FrontierSize)
	}
}

// otraceAt converts a wall-clock time to the otrace monotonic clock.
func otraceAt(t time.Time) int64 { return otrace.Now() - int64(time.Since(t)) }
