package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"wsrs"
	"wsrs/internal/cellcache"
	"wsrs/internal/explore"
	"wsrs/internal/otrace"
	"wsrs/internal/telemetry"
)

// Explore metric families.
const (
	mExploreJobs      = "wsrsd_explore_jobs_total"
	helpExploreJobs   = "explore jobs by outcome (done, failed, canceled, rejected, invalid)"
	mExploreActive    = "wsrsd_explore_active"
	helpExploreActive = "explore jobs accepted and not yet terminal"
	mExplorePoints    = "wsrsd_explore_points_total"
	helpExplorePoints = "design points by disposition (evaluated, pruned)"
)

// ExploreRequest is the body of POST /v1/explore: a design-space
// exploration (space, strategy, knobs — see explore.Request) plus the
// serving label.
type ExploreRequest struct {
	explore.Request
	Label string `json:"label,omitempty"`
}

// ExploreStatus is the explore-job record served by GET
// /v1/explore/{id}.
type ExploreStatus struct {
	ID      string `json:"id"`
	Label   string `json:"label,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	State   string `json:"state"`
	// Strategy and SpaceDigest identify what is being searched.
	Strategy    string     `json:"strategy"`
	SpaceDigest string     `json:"space_digest"`
	Created     time.Time  `json:"created"`
	Finished    *time.Time `json:"finished,omitempty"`
	// Phase is the search phase currently running ("enumerate",
	// "prefilter", "evaluate", "round 2/3", "frontier").
	Phase string `json:"phase,omitempty"`
	// CellsTotal is the admission-time upper bound on simulations
	// (selected points x kernels); Evaluated/Pruned/FrontierSize are
	// the live search counters.
	CellsTotal   int `json:"cells_total"`
	Evaluated    int `json:"points_evaluated"`
	Pruned       int `json:"points_pruned"`
	FrontierSize int `json:"frontier_size"`
	// CacheHits counts cells served from the content-addressed result
	// cache instead of simulated.
	CacheHits int64  `json:"cache_hits"`
	Error     string `json:"error,omitempty"`
}

// ExploreEvent is one entry of the explore event stream: a phase
// transition, a progress tick, or the job reaching a terminal state.
type ExploreEvent struct {
	Type      string         `json:"type"` // "phase", "progress" or "job"
	Phase     string         `json:"phase,omitempty"`
	Evaluated int            `json:"points_evaluated"`
	Pruned    int            `json:"points_pruned"`
	Frontier  int            `json:"frontier_size"`
	Job       *ExploreStatus `json:"job,omitempty"`
}

// exploreState is the exploration-specific part of a task. req,
// spaceDigest and cellsTotal are fixed at admission; the rest is
// guarded by the task's mu.
type exploreState struct {
	req         explore.Request
	spaceDigest string
	cellsTotal  int

	phase     string
	evaluated int
	pruned    int
	frontier  int
	cacheHits int64
	rendered  []byte
}

func (t *task) exploreStatusLocked() ExploreStatus {
	x := t.x
	st := ExploreStatus{
		ID: t.id, Label: t.label, TraceID: otrace.FormatTraceID(t.trace),
		State: t.state, Strategy: x.req.Strategy, SpaceDigest: x.spaceDigest,
		Created: t.created, Phase: x.phase,
		CellsTotal: x.cellsTotal, Evaluated: x.evaluated, Pruned: x.pruned,
		FrontierSize: x.frontier, CacheHits: x.cacheHits, Error: t.err,
	}
	if !t.finished.IsZero() {
		f := t.finished
		st.Finished = &f
	}
	return st
}

// exploreRun drives one exploration's search through the daemon. It is
// the search's Evaluator — each evaluation batch is one round of the
// task's cells, resolved like a job's (telemetry always on: the search
// prices energy from activity counters) — and its Observer: phases and
// progress become spans, status counters and SSE events.
type exploreRun struct {
	s *Server
	t *task

	// The open phase span; only the searching goroutine touches it.
	phaseSpan otrace.Span
	phaseOpen bool
}

func (e *exploreRun) Evaluate(ctx context.Context, cells []explore.Cell, opts explore.EvalOpts) ([]explore.Outcome, error) {
	ids := make([]cellcache.CellID, len(cells))
	for i, c := range cells {
		ids[i] = cellcache.CellID{
			Kernel: c.Kernel, Config: string(c.Config), Policy: c.Policy,
			Mods: c.Mods, Seed: opts.Seed, Warmup: opts.Warmup,
			Measure: opts.Measure, Telemetry: true,
		}
	}
	// Admission: the whole batch reserves queue room up front, exactly
	// like a job of the same size.
	if err := e.s.reservePending(len(ids)); err != nil {
		return nil, err
	}
	outs := make([]explore.Outcome, len(ids))
	t := e.t
	e.s.resolveCells(ctx, t, ids, func(i int, disposition string, res wsrs.Result, _ time.Duration, err error) {
		outs[i] = explore.Outcome{Result: res, Cached: disposition == CacheHit, Err: err}
		if disposition == CacheHit {
			t.mu.Lock()
			t.x.cacheHits++
			t.mu.Unlock()
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return outs, nil
}

// Phase implements explore.Observer: close the previous phase span,
// open the next, and emit the phase event.
func (e *exploreRun) Phase(name string) {
	e.closePhase()
	e.phaseSpan = e.s.tracer.Begin("explore."+name, e.t.rootCtx())
	e.phaseOpen = true
	t, x := e.t, e.t.x
	t.mu.Lock()
	x.phase = name
	t.appendLocked("phase", ExploreEvent{Type: "phase", Phase: name,
		Evaluated: x.evaluated, Pruned: x.pruned, Frontier: x.frontier})
	t.mu.Unlock()
}

// Progress implements explore.Observer.
func (e *exploreRun) Progress(evaluated, pruned, frontier int) {
	t, x := e.t, e.t.x
	t.mu.Lock()
	x.evaluated, x.pruned, x.frontier = evaluated, pruned, frontier
	t.appendLocked("progress", ExploreEvent{Type: "progress", Phase: x.phase,
		Evaluated: evaluated, Pruned: pruned, Frontier: frontier})
	t.mu.Unlock()
}

func (e *exploreRun) closePhase() {
	if e.phaseOpen {
		e.s.tracer.End(&e.phaseSpan)
		e.phaseOpen = false
	}
}

// admissionError is a batch reservation the queue cannot absorb; the
// explore driver fails the job with 429 semantics recorded in the
// error string.
type admissionError struct {
	pending int64
	cap     int
}

func (e *admissionError) Error() string {
	return fmt.Sprintf("queue full: %d cells pending of %d cap", e.pending, e.cap)
}

// reservePending reserves queue room for n cells or reports the
// admission failure — the same compare-and-swap the job API runs, so
// explore batches and jobs contend for one admission budget.
func (s *Server) reservePending(n int) error {
	for {
		p := s.pending.Load()
		if int(p)+n > s.opts.MaxQueuedCells {
			return &admissionError{pending: p, cap: s.opts.MaxQueuedCells}
		}
		if s.pending.CompareAndSwap(p, p+int64(n)) {
			s.reg.Gauge(mPending, helpPending).Set(s.pending.Load())
			return nil
		}
	}
}

// exploreWorkload sizes an exploration before any state is created:
// the canonical space digest and the upper bound on simulations per
// evaluation batch (selected points x kernels).
func exploreWorkload(r *explore.Request) (digest string, cells int) {
	canon := r.Space.Canon()
	points, _ := canon.Enumerate()
	selected := len(points)
	if r.Strategy == explore.StrategyRandom && r.Samples < selected {
		selected = r.Samples
	}
	return canon.Digest(), selected * len(canon.Kernels)
}

func (s *Server) handleExploreSubmit(w http.ResponseWriter, r *http.Request) {
	adm := s.tracer.Begin("explore.admission", requestCtx(r))
	outcome := "accepted"
	defer func() {
		adm.SetStr("outcome", outcome)
		s.tracer.End(&adm)
	}()

	if s.draining.Load() {
		outcome = "draining"
		s.writeError(w, r, http.StatusServiceUnavailable,
			ErrorEnvelope{Msg: "draining: not accepting new jobs"})
		return
	}
	var req ExploreRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		outcome = "invalid"
		s.writeError(w, r, http.StatusBadRequest, ErrorEnvelope{Field: "body", Msg: err.Error()})
		return
	}
	req.Request.Normalize()
	if errs := req.Request.Validate(); len(errs) > 0 {
		// Structured 400: the envelope carries the first field error's
		// detail (field, message, valid set) and enumerates the rest.
		outcome = "invalid"
		s.reg.Counter(mExploreJobs+telemetry.Labels("outcome", "invalid"), helpExploreJobs).Inc()
		msgs := make([]string, len(errs))
		for i, fe := range errs {
			msgs[i] = fe.Error()
		}
		s.writeError(w, r, http.StatusBadRequest, ErrorEnvelope{
			Msg: strings.Join(msgs, "; "), Field: errs[0].Field, Valid: errs[0].Valid})
		return
	}
	if s.opts.MaxMeasure > 0 && req.Request.Measure > s.opts.MaxMeasure {
		outcome = "invalid"
		s.writeError(w, r, http.StatusBadRequest, ErrorEnvelope{
			Field: "measure_insts",
			Msg:   fmt.Sprintf("measure %d exceeds the server cap %d", req.Request.Measure, s.opts.MaxMeasure)})
		return
	}
	digest, cells := exploreWorkload(&req.Request)
	if cells == 0 {
		outcome = "invalid"
		s.writeError(w, r, http.StatusBadRequest, ErrorEnvelope{
			Field: "space", Msg: "space enumerates to zero simulable points"})
		return
	}
	// Admission: a space whose largest batch cannot ever fit the queue
	// is refused outright rather than accepted to fail.
	if cells > s.opts.MaxQueuedCells {
		outcome = "rejected"
		s.reg.Counter(mExploreJobs+telemetry.Labels("outcome", "rejected"), helpExploreJobs).Inc()
		w.Header().Set("Retry-After", "1")
		s.writeError(w, r, http.StatusTooManyRequests, ErrorEnvelope{
			Msg:      fmt.Sprintf("space needs %d concurrent cells, above the queue cap", cells),
			Pending:  s.pending.Load(),
			QueueCap: s.opts.MaxQueuedCells})
		return
	}

	t := s.newTask(r, req.Label)
	t.x = &exploreState{req: req.Request, spaceDigest: digest, cellsTotal: cells}
	s.publish(t)
	adm.SetStr("explore_id", t.id)

	s.reg.Gauge(mExploreActive, helpExploreActive).Add(1)
	s.jobWG.Add(1)
	go s.runExplore(t)

	s.log.LogAttrs(r.Context(), slog.LevelInfo, "explore accepted",
		slog.String("explore_id", t.id),
		slog.String("trace_id", otrace.FormatTraceID(t.trace)),
		slog.String("label", t.label),
		slog.String("strategy", req.Strategy),
		slog.String("space_digest", digest),
		slog.Int("cells", cells))

	w.Header().Set("Location", "/v1/explore/"+t.id)
	writeJSON(w, http.StatusAccepted, t.status())
}

// runExplore drives one accepted exploration to a terminal state.
func (s *Server) runExplore(t *task) {
	defer s.jobWG.Done()
	defer s.reg.Gauge(mExploreActive, helpExploreActive).Add(-1)
	t.setRunning()

	run := &exploreRun{s: s, t: t}
	doc, err := explore.Run(t.ctx, t.x.req, run, run)
	run.closePhase()

	state, msg := StateDone, ""
	switch {
	case err == nil:
		rendered, rerr := doc.Render()
		if rerr != nil {
			state, msg = StateFailed, rerr.Error()
			break
		}
		t.mu.Lock()
		t.x.rendered = rendered
		t.x.evaluated = doc.Evaluated
		t.x.pruned = len(doc.PrunedSet)
		t.x.frontier = len(doc.Frontier)
		t.mu.Unlock()
		s.reg.Counter(mExplorePoints+telemetry.Labels("disposition", "evaluated"), helpExplorePoints).Add(uint64(doc.Evaluated))
		s.reg.Counter(mExplorePoints+telemetry.Labels("disposition", "pruned"), helpExplorePoints).Add(uint64(len(doc.PrunedSet)))
	case t.ctx.Err() != nil || errors.Is(err, context.Canceled):
		state, msg = StateCanceled, "canceled"
	default:
		state, msg = StateFailed, err.Error()
	}
	s.reg.Counter(mExploreJobs+telemetry.Labels("outcome", state), helpExploreJobs).Inc()

	endNs := otrace.Now()
	st := t.status().(ExploreStatus)
	root := s.rootSpan(t, state, endNs)
	root.SetStr("strategy", st.Strategy)
	root.SetInt("evaluated", int64(st.Evaluated))
	root.SetInt("pruned", int64(st.Pruned))
	root.SetInt("frontier", int64(st.FrontierSize))
	s.tracer.Append(&root)
	s.syncTraceMetrics()

	s.log.LogAttrs(context.Background(), slog.LevelInfo, "explore finished",
		slog.String("explore_id", t.id),
		slog.String("trace_id", otrace.FormatTraceID(t.trace)),
		slog.String("state", state),
		slog.Int("evaluated", st.Evaluated),
		slog.Int("pruned", st.Pruned),
		slog.Int("frontier", st.FrontierSize),
		slog.Int64("cache_hits", st.CacheHits),
		slog.Float64("total_ms", float64(time.Duration(endNs-t.startNs).Microseconds())/1000))
	s.finish(t, state, msg)
}

// handleExploreFrontier serves the finished job's frontier document
// verbatim — the deterministic JSON explore.Document.Render produced,
// byte-identical across runs, hosts and evaluators.
func (s *Server) handleExploreFrontier(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(w, r, kindExplore)
	if t == nil {
		return
	}
	t.mu.Lock()
	state, doc := t.state, t.x.rendered
	t.mu.Unlock()
	if state != StateDone {
		s.writeError(w, r, http.StatusConflict, ErrorEnvelope{
			Msg: fmt.Sprintf("explore job %s is %s; the frontier requires state %q",
				t.id, state, StateDone)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(doc)
}

// initExploreMetrics pre-registers the explore families.
func (s *Server) initExploreMetrics() {
	for _, outcome := range []string{"done", "failed", "canceled", "rejected", "invalid"} {
		s.reg.Counter(mExploreJobs+telemetry.Labels("outcome", outcome), helpExploreJobs)
	}
	s.reg.Gauge(mExploreActive, helpExploreActive)
	for _, d := range []string{"evaluated", "pruned"} {
		s.reg.Counter(mExplorePoints+telemetry.Labels("disposition", d), helpExplorePoints)
	}
}
