package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"wsrs"
	"wsrs/internal/cellcache"
	"wsrs/internal/otrace"
)

// taskKind is what a task serves: a cell-grid job (/v1/jobs) or a
// design-space exploration (/v1/explore). Each route resolves only its
// own kind, so the one task table never serves a job as an exploration
// or the other way round.
type taskKind int

const (
	kindJob taskKind = iota
	kindExplore
)

// kinds holds each kind's ID prefix, its noun in 404 messages and the
// name of its root span.
var kinds = [...]struct{ prefix, noun, span string }{
	kindJob:     {"j", "job", "job"},
	kindExplore: {"x", "explore job", "explore"},
}

// taskEvent is one entry of a task's event log: the SSE event name and
// its payload (an Event or an ExploreEvent), marshaled at stream time.
type taskEvent struct {
	typ     string
	payload any
}

// task is the server-side record of one accepted job or exploration. A
// task is a job whose cells arrive in rounds: a grid job resolves one
// round, an exploration one round per evaluation batch of its search.
// Identity, trace, cancellation, state, event log and phase accounting
// are shared; only the kind-specific view differs.
type task struct {
	id    string
	label string

	// Trace identity: every span of the lifecycle carries trace; root is
	// the preallocated ID of the root span (emitted only when the task
	// finishes, so lifecycle spans can parent to it up front), parentSpan
	// the submit request's "http" span. startNs stamps acceptance on the
	// otrace monotonic clock (opens the "total" phase).
	trace      otrace.TraceID
	root       otrace.SpanID
	parentSpan otrace.SpanID
	startNs    int64

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    string
	created  time.Time
	finished time.Time
	err      string
	events   []taskEvent
	changed  chan struct{} // closed and replaced on every append
	phaseNs  map[string]int64

	// A grid job's per-cell status and results, in cell order.
	cells   []CellStatus
	results []wsrs.Result
	// x is an exploration's search state; nil for a grid job.
	x *exploreState
}

func (t *task) kind() taskKind {
	if t.x != nil {
		return kindExplore
	}
	return kindJob
}

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// newTask builds an accepted request's task, not yet published. It
// inherits the request's trace, so the submit http span, the admission
// span and the whole lifecycle share one trace.
func (s *Server) newTask(r *http.Request, label string) *task {
	ctx, cancel := context.WithCancel(s.ctx)
	rctx := requestCtx(r)
	trace := rctx.Trace
	if trace == 0 {
		trace = s.tracer.NewTrace()
	}
	return &task{
		label:      label,
		trace:      trace,
		root:       s.tracer.AllocID(),
		parentSpan: rctx.Span,
		startNs:    otrace.Now(),
		ctx:        ctx,
		cancel:     cancel,
		state:      StateQueued,
		created:    time.Now(),
		changed:    make(chan struct{}),
		phaseNs:    make(map[string]int64, len(PhaseNames)),
	}
}

// publish gives t the next ID of its kind and enters it in the table.
func (s *Server) publish(t *task) {
	k := t.kind()
	s.mu.Lock()
	s.nextID[k]++
	t.id = fmt.Sprintf("%s-%06d", kinds[k].prefix, s.nextID[k])
	s.tasks[t.id] = t
	s.order = append(s.order, t)
	s.mu.Unlock()
}

// lookup resolves the {id} path value to a task of the route's kind,
// or writes the 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request, kind taskKind) *task {
	s.mu.Lock()
	t := s.tasks[r.PathValue("id")]
	s.mu.Unlock()
	if t == nil || t.kind() != kind {
		s.writeError(w, r, http.StatusNotFound,
			ErrorEnvelope{Msg: fmt.Sprintf("no such %s %q", kinds[kind].noun, r.PathValue("id"))})
		return nil
	}
	return t
}

// rootCtx is the context that parents lifecycle spans to the task's
// (future) root span.
func (t *task) rootCtx() otrace.Ctx { return otrace.Ctx{Trace: t.trace, Span: t.root} }

// accrue records one phase duration: a sample of the daemon-wide phase
// log and a share of t's decomposition (the phase_ms map of /debug/slow
// and the "job finished" log line).
func (s *Server) accrue(t *task, phase string, d time.Duration) {
	s.observePhase(phase, d)
	t.mu.Lock()
	t.phaseNs[phase] += int64(d)
	t.mu.Unlock()
}

// phaseMs snapshots the accrued decomposition in milliseconds.
func (t *task) phaseMs() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.phaseNs))
	for k, v := range t.phaseNs {
		out[k] = float64(v/1e3) / 1e3
	}
	return out
}

func (t *task) setRunning() {
	t.mu.Lock()
	if t.state == StateQueued {
		t.state = StateRunning
	}
	t.mu.Unlock()
}

// status snapshots the public record: a JobStatus or an ExploreStatus.
func (t *task) status() any {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.x != nil {
		return t.exploreStatusLocked()
	}
	return t.jobStatusLocked()
}

func (t *task) appendLocked(typ string, payload any) {
	t.events = append(t.events, taskEvent{typ, payload})
	close(t.changed)
	t.changed = make(chan struct{})
}

// eventsSince returns the events after cursor plus the channel that
// closes on the next append, so a streaming handler can replay then
// follow without polling.
func (t *task) eventsSince(cursor int) ([]taskEvent, chan struct{}, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cursor >= len(t.events) {
		return nil, t.changed, terminal(t.state)
	}
	return append([]taskEvent(nil), t.events[cursor:]...), t.changed, terminal(t.state)
}

// finish moves t to a terminal state, appends the terminal "job" event,
// trims the history and releases t's context. KeepJobs caps the
// terminal tasks of both kinds together; the ones that finished longest
// ago go first and live ones are never evicted. The trim happens under
// the same s.mu hold as the state change, so a client that has seen the
// terminal state lists the trimmed history.
func (s *Server) finish(t *task, state, errMsg string) {
	s.mu.Lock()
	t.mu.Lock()
	t.state, t.err, t.finished = state, errMsg, time.Now()
	if x := t.x; x != nil {
		x.phase = ""
		st := t.exploreStatusLocked()
		t.appendLocked("job", ExploreEvent{Type: "job", Evaluated: st.Evaluated,
			Pruned: st.Pruned, Frontier: st.FrontierSize, Job: &st})
	} else {
		st := t.jobStatusLocked()
		t.appendLocked("job", Event{Type: "job", Job: &st})
	}
	t.mu.Unlock()
	s.ended = append(s.ended, t)
	for len(s.ended) > s.opts.KeepJobs {
		old := s.ended[0]
		s.ended = s.ended[1:]
		delete(s.tasks, old.id)
		s.order = slices.DeleteFunc(s.order, func(o *task) bool { return o == old })
	}
	s.mu.Unlock()
	t.cancel()
}

// rootSpan builds t's root span retroactively under its preallocated
// ID, so every lifecycle span recorded meanwhile already parents to it.
// The caller adds its kind's attributes and appends the span.
func (s *Server) rootSpan(t *task, state string, endNs int64) otrace.Span {
	name := kinds[t.kind()].span
	sp := s.tracer.Make(name, otrace.Ctx{Trace: t.trace, Span: t.parentSpan}, t.startNs, endNs)
	sp.ID = t.root
	sp.SetStr(name+"_id", t.id)
	sp.SetStr("state", state)
	return sp
}

func (s *Server) handleList(kind taskKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		out := []any{}
		for _, t := range s.order {
			if t.kind() != kind {
				continue
			}
			st := t.status()
			if js, ok := st.(JobStatus); ok {
				js.Cells = nil // the list stays cheap; GET the job for cells
				st = js
			}
			out = append(out, st)
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, out)
	}
}

func (s *Server) handleGet(kind taskKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if t := s.lookup(w, r, kind); t != nil {
			writeJSON(w, http.StatusOK, t.status())
		}
	}
}

func (s *Server) handleCancel(kind taskKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if t := s.lookup(w, r, kind); t != nil {
			t.cancel()
			writeJSON(w, http.StatusOK, t.status())
		}
	}
}

// handleEvents streams a task's event log as server-sent events: every
// recorded event replays immediately, then the stream follows live
// until the task reaches a terminal state or the client leaves. A job
// streams its per-cell outcomes, an exploration its phases and progress
// ticks; both end with the terminal "job" record.
func (s *Server) handleEvents(kind taskKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := s.lookup(w, r, kind)
		if t == nil {
			return
		}
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusNotImplemented)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		cursor := 0
		for {
			events, changed, ended := t.eventsSince(cursor)
			for _, ev := range events {
				data, err := json.Marshal(ev.payload)
				if err != nil {
					return
				}
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.typ, data)
			}
			cursor += len(events)
			fl.Flush()
			if ended && len(events) == 0 {
				return
			}
			if len(events) > 0 {
				continue // drain the log before blocking
			}
			select {
			case <-changed:
			case <-r.Context().Done():
				return
			}
		}
	}
}

// resolveCells resolves one round of t's cells: a cache hit at once,
// otherwise by joining or starting the cell's flight (singleflight over
// the shared worker pool) and waiting for it, or abandoning it when ctx
// ends. Each cell gets a "cell" span under t's root with a cache.lookup
// child, plus coalesce.wait when it joined another cell's flight; a
// flight it started parents its queue.wait and simulate spans there.
// record receives each outcome as it lands, in completion order.
func (s *Server) resolveCells(ctx context.Context, t *task, ids []cellcache.CellID,
	record func(i int, disposition string, res wsrs.Result, wall time.Duration, err error)) {
	var wg sync.WaitGroup
	for i, id := range ids {
		start := otrace.Now()
		cell := otrace.Ctx{Trace: t.trace, Span: s.tracer.AllocID()}
		digest := id.Digest()
		lookup := s.tracer.Begin("cache.lookup", cell)
		res, hit := s.cache.Get(digest)
		lookup.SetBool("hit", hit)
		s.tracer.End(&lookup)
		s.accrue(t, PhaseCache, time.Duration(lookup.Dur()))
		if hit {
			s.reg.Counter(mCacheHits, helpCacheHits).Inc()
			record(i, CacheHit, res, 0, nil)
			s.endCellSpan(t, cell.Span, i, id, CacheHit, start)
			s.cellDone()
			continue
		}
		fl, coalesced := s.acquireFlight(id, digest, cell, t)
		disposition := CacheMiss
		var wait otrace.Span
		if coalesced {
			disposition = CacheCoalesced
			// The waiter's span links (not parents) to the leader
			// flight's cell span: the leader may belong to a different
			// trace, so the linkage crosses traces by attribute.
			wait = s.tracer.Begin("coalesce.wait", cell)
			wait.SetStr("link_trace", otrace.FormatTraceID(fl.ctx.Trace))
			wait.SetStr("link_span", otrace.FormatSpanID(fl.ctx.Span))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-fl.done:
				if via := fl.disposition(); via != "" && disposition == CacheMiss {
					disposition = via // e.g. served by a peer's cache
				}
				record(i, disposition, fl.res, fl.wall, fl.err)
			case <-ctx.Done():
				fl.abandon()
				record(i, disposition, wsrs.Result{}, 0, ctx.Err())
			}
			if coalesced {
				s.tracer.End(&wait)
				s.accrue(t, PhaseCoalesce, time.Duration(wait.Dur()))
			}
			s.endCellSpan(t, cell.Span, i, id, disposition, start)
			s.cellDone()
		}()
	}
	wg.Wait()
}

// endCellSpan emits cell i's span retroactively under its preallocated
// ID, covering acceptance to resolution, so the child spans recorded
// meanwhile (cache.lookup, queue.wait, simulate, coalesce.wait)
// already point at it.
func (s *Server) endCellSpan(t *task, id otrace.SpanID, i int, cell cellcache.CellID, disposition string, start int64) {
	sp := s.tracer.Make("cell", t.rootCtx(), start, otrace.Now())
	sp.ID = id
	sp.SetInt("cell", int64(i))
	sp.SetStr("cache", disposition)
	sp.SetStr("kernel", cell.Kernel)
	sp.SetStr("config", cell.Config)
	s.tracer.Append(&sp)
}

// jobStatusLocked is a grid job's public record.
func (t *task) jobStatusLocked() JobStatus {
	s := JobStatus{
		ID: t.id, Label: t.label, TraceID: otrace.FormatTraceID(t.trace),
		State: t.state, Created: t.created,
		CellsTotal: len(t.cells), Error: t.err,
		Cells: append([]CellStatus(nil), t.cells...),
	}
	if !t.finished.IsZero() {
		f := t.finished
		s.Finished = &f
	}
	for _, c := range t.cells {
		switch c.State {
		case StateDone:
			s.CellsDone++
		case StateFailed:
			s.CellsFailed++
		}
	}
	return s
}

// resolveCell records one grid-job cell outcome and appends its event.
func (t *task) resolveCell(i int, disposition string, res wsrs.Result, wall time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &t.cells[i]
	c.Cache = disposition
	c.WallMs = float64(wall.Microseconds()) / 1000
	if err != nil {
		c.State = StateFailed
		c.Error = err.Error()
		var be *BackendError
		if errors.As(err, &be) {
			c.Backend = be.Envelope()
		}
	} else {
		c.State = StateDone
		c.IPC = res.IPC
		c.Insts = res.Insts
		c.Cycles = res.Cycles
		t.results[i] = res
	}
	ev := *c
	t.appendLocked("cell", Event{Type: "cell", Cell: &ev})
}
