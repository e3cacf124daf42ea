package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsrs"
	"wsrs/internal/cellcache"
	"wsrs/internal/otrace"
	flightrec "wsrs/internal/otrace/flight"
	"wsrs/internal/telemetry"
)

// Options sizes the daemon. The zero value is a sane single-host
// deployment: GOMAXPROCS workers, 1024-cell queue, a 4096-entry
// memory-only cache.
type Options struct {
	// Workers bounds the simulation worker pool (<= 0 selects
	// GOMAXPROCS). The pool is shared by every job, so one huge grid
	// cannot starve the daemon.
	Workers int
	// MaxQueuedCells is the admission-control cap: a job whose cells
	// would push the pending total past it is rejected with 429 +
	// Retry-After instead of being queued.
	MaxQueuedCells int
	// CachePath persists the result cache as JSONL ("" = memory
	// only); CacheEntries bounds the LRU (<= 0 selects 4096).
	CachePath    string
	CacheEntries int
	// MaxMeasure caps the per-cell measured-instruction budget a
	// request may ask for (0 = unbounded).
	MaxMeasure uint64
	// KeepJobs bounds the terminal history of jobs and explore jobs
	// together (<= 0 selects 256): past it the ones that finished
	// longest ago are dropped, while live ones are kept however old.
	KeepJobs int
	// TraceSpans bounds the span ring the job lifecycle records into
	// (<= 0 selects otrace.DefaultCapacity). Tracing is always on —
	// the span hot path is allocation-free, so there is nothing to
	// turn off.
	TraceSpans int
	// SlowJobs bounds the /debug/slow ring of slowest recent jobs
	// (<= 0 selects 32).
	SlowJobs int
	// PhaseSamples bounds the /v1/phases sample log (<= 0 selects
	// 8192).
	PhaseSamples int
	// SLO overrides the recorded per-phase latency objectives (nil
	// selects DefaultSLOTargets).
	SLO []SLOTarget
	// Logger receives the structured job-lifecycle and access log
	// (nil discards).
	Logger *slog.Logger
	// Registry overrides the daemon's metric registry (nil creates a
	// private one). wsrsd in coordinator mode passes the registry its
	// fleet.Coordinator already counts on, so one /metrics scrape
	// shows admission, cache and fleet behaviour together.
	Registry *telemetry.Registry
	// Runner, when non-nil, replaces the local simulation of a cache
	// miss: the worker pool calls it instead of wsrs.RunGrid. This is
	// the coordinator hook — wsrsd -peers wires a fleet.Coordinator
	// here, so the whole job API (admission, coalescing, cache, drain)
	// sits unchanged in front of a distributed backend set. The ctx is
	// canceled when every job waiting on the cell has abandoned it.
	Runner CellRunner
	// Peers, when non-nil, inserts the peer-fetch cache tier between
	// the local cache and simulation: a missing digest is first asked
	// of its consistent-hash home peer (GET /v1/cache/{digest}) and
	// only simulated locally if no peer holds it. Ignored when Runner
	// is set — a coordinator already routes cells to their cache home.
	Peers PeerFetcher
	// Process labels this daemon in fleet-wide observability output:
	// stitched trace tracks, federated metric labels, flight-recorder
	// snapshots ("" selects "wsrsd"; a coordinator passes
	// "coordinator", members their listen address).
	Process string
	// Tracer overrides the daemon's span recorder (nil creates a
	// private one sized by TraceSpans). wsrsd in coordinator mode
	// passes the recorder its fleet.Coordinator records into, so the
	// coordinator's fleet spans and the job lifecycle share one ring —
	// the precondition for stitched fleet traces.
	Tracer *otrace.Recorder
	// Flight overrides the black-box flight recorder (nil creates a
	// memory-only one). wsrsd wires one configured with -postmortem-dir
	// and shares it with the fleet coordinator.
	Flight *flightrec.Recorder
	// Fleet, when non-nil, mounts the fleet observability surface
	// (GET /v1/fleet/metrics, /v1/fleet/status) and upgrades
	// GET /v1/jobs/{id}/trace to the stitched multi-process document.
	Fleet FleetObserver
	// FleetScrapeTimeout bounds each federation fan-out (<= 0 selects
	// 2s).
	FleetScrapeTimeout time.Duration
}

// CellRunner resolves one cell somewhere other than the local worker
// pool (a fleet coordinator scattering to remote backends). It must
// honor ctx cancellation promptly and return the cell's wall time.
type CellRunner interface {
	RunCell(ctx context.Context, id cellcache.CellID) (wsrs.Result, time.Duration, error)
}

// PeerFetcher looks a content address up in a peer's result cache,
// reporting ok=false on any miss or peer failure — a peer-fetch
// failure is never a cell failure, just a fallback to local work.
type PeerFetcher interface {
	FetchPeer(ctx context.Context, digest string) (wsrs.Result, bool)
}

// cellTask is one simulation the worker pool owes: the flight every
// waiting job subscribed to.
type cellTask struct {
	id     cellcache.CellID
	digest string
	fl     *flight
}

// flight is one in-flight simulation shared by every job that asked
// for the same content address while it ran (singleflight): the first
// request creates and enqueues it, duplicates subscribe, and a
// thundering herd of identical jobs costs one simulation.
type flight struct {
	// ctx is the leader cell's span context: the queue-wait and
	// simulate spans parent here, and coalesced waiters link their
	// wait spans to it across traces.
	ctx otrace.Ctx
	// owner is the task that created the flight; its phase accounting
	// absorbs the queue and simulate time.
	owner *task
	// enqueued stamps when the task entered the worker queue
	// (otrace.Now), opening the queue-wait span.
	enqueued int64
	// cancel closes when the last waiter abandons the flight: the
	// in-flight simulation (local or remote) aborts instead of running
	// to completion for nobody.
	cancel chan struct{}

	mu      sync.Mutex
	waiters int
	dead    bool // every waiter left; joiners must start a fresh flight
	via     string
	done    chan struct{}
	res     wsrs.Result
	err     error
	wall    time.Duration
}

// join subscribes one more waiter. It fails on a dead flight — one
// whose cancellation already fired — so a late-arriving duplicate
// starts a fresh flight instead of inheriting a canceled result.
func (f *flight) join() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return false
	}
	f.waiters++
	return true
}

// abandon drops one waiter; the last one out cancels the flight.
func (f *flight) abandon() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.waiters--
	if f.waiters <= 0 && !f.dead {
		f.dead = true
		close(f.cancel)
	}
}

func (f *flight) abandoned() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead || f.waiters <= 0
}

// resolvedVia records how the flight's result was obtained (peer
// fetch vs local simulation) for the waiters' cell dispositions.
func (f *flight) resolvedVia(via string) {
	f.mu.Lock()
	f.via = via
	f.mu.Unlock()
}

func (f *flight) disposition() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.via
}

func (f *flight) resolve(res wsrs.Result, err error, wall time.Duration) {
	f.res, f.err, f.wall = res, err, wall
	close(f.done)
}

// Server is the wsrsd daemon core: the job and explore APIs over a
// bounded worker pool layered on wsrs.RunGrid, the content-addressed
// result cache, request coalescing, admission control and graceful
// drain. Build with New, mount Handler, stop with Drain.
type Server struct {
	opts  Options
	reg   *telemetry.Registry
	cache *cellcache.Cache

	tracer  *otrace.Recorder
	fr      *flightrec.Recorder
	process string
	phases  *phaseLog
	slow    *slowRing
	log     *slog.Logger

	slo        map[string]*phaseSLO
	sloTargets []SLOTarget

	ctx    context.Context // parent of every job context
	cancel context.CancelFunc

	queue    chan *cellTask
	workerWG sync.WaitGroup
	jobWG    sync.WaitGroup

	pending  atomic.Int64 // cells accepted but not yet resolved
	draining atomic.Bool
	stopOnce sync.Once

	// Jobs and explore jobs share one task table: order lists the tasks
	// in creation order, ended the terminal ones in finish order (the
	// eviction order), and nextID numbers each kind on its own.
	mu      sync.Mutex
	flights map[string]*flight
	tasks   map[string]*task
	order   []*task
	ended   []*task
	nextID  [len(kinds)]int
}

// New builds the daemon and starts its worker pool.
func New(o Options) (*Server, error) {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueuedCells <= 0 {
		o.MaxQueuedCells = 1024
	}
	if o.KeepJobs <= 0 {
		o.KeepJobs = 256
	}
	cache, err := cellcache.Open(o.CachePath, o.CacheEntries)
	if err != nil {
		return nil, err
	}
	lg := o.Logger
	if lg == nil {
		lg = discardLogger()
	}
	reg := o.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	process := o.Process
	if process == "" {
		process = "wsrsd"
	}
	tracer := o.Tracer
	if tracer == nil {
		tracer = otrace.NewRecorder(o.TraceSpans)
	}
	fr := o.Flight
	if fr == nil {
		fr = flightrec.New(flightrec.Options{Process: process, Spans: tracer})
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    o,
		reg:     reg,
		cache:   cache,
		tracer:  tracer,
		fr:      fr,
		process: process,
		phases:  newPhaseLog(o.PhaseSamples),
		slow:    newSlowRing(o.SlowJobs),
		log:     lg,
		ctx:     ctx,
		cancel:  cancel,
		queue:   make(chan *cellTask, o.MaxQueuedCells+1),
		flights: map[string]*flight{},
		tasks:   map[string]*task{},
	}
	s.initMetrics()
	s.initExploreMetrics()
	for w := 0; w < o.Workers; w++ {
		s.workerWG.Add(1)
		go func(worker int) {
			defer s.workerWG.Done()
			for t := range s.queue {
				s.runFlight(t, worker)
			}
		}(w)
	}
	return s, nil
}

// Tracer exposes the daemon's span recorder (tests and embedders).
func (s *Server) Tracer() *otrace.Recorder { return s.tracer }

// FlightRecorder exposes the daemon's black-box recorder (tests,
// cmd/wsrsd's fault wiring).
func (s *Server) FlightRecorder() *flightrec.Recorder { return s.fr }

// Registry exposes the daemon's metric registry (served at /metrics).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Cache exposes the result store (cmd/wsrsd reports its size on
// drain).
func (s *Server) Cache() *cellcache.Cache { return s.cache }

// Handler is the daemon's whole HTTP surface: the diagnostic
// endpoints (/metrics Prometheus exposition of the daemon registry,
// /debug/vars expvar, the /debug/pprof profiling endpoints, and a
// one-line index at /), the health probes, and the job and explore
// APIs, behind the access log.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "wsrsd: POST /v1/jobs, GET /v1/jobs/{id}[/results|/events], DELETE /v1/jobs/{id}; POST /v1/explore, GET /v1/explore/{id}[/frontier|/events], DELETE /v1/explore/{id}; /metrics /healthz /debug/vars /debug/pprof/")
	})
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("POST /v1/jobs", s.instrument("/v1/jobs", s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.instrument("/v1/jobs", s.handleList(kindJob)))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleGet(kindJob)))
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.instrument("/v1/jobs/{id}/results", s.handleResults))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.instrument("/v1/jobs/{id}/trace", s.handleTrace))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents(kindJob)) // streams: latency histogram would lie
	mux.HandleFunc("POST /v1/explore", s.instrument("/v1/explore", s.handleExploreSubmit))
	mux.HandleFunc("GET /v1/explore", s.instrument("/v1/explore", s.handleList(kindExplore)))
	mux.HandleFunc("GET /v1/explore/{id}", s.instrument("/v1/explore/{id}", s.handleGet(kindExplore)))
	mux.HandleFunc("GET /v1/explore/{id}/frontier", s.instrument("/v1/explore/{id}/frontier", s.handleExploreFrontier))
	mux.HandleFunc("GET /v1/explore/{id}/events", s.handleEvents(kindExplore)) // streams
	mux.HandleFunc("DELETE /v1/explore/{id}", s.instrument("/v1/explore/{id}", s.handleCancel(kindExplore)))
	mux.HandleFunc("GET /v1/cache/{digest}", s.instrument("/v1/cache/{digest}", s.handleCacheFetch))
	mux.HandleFunc("GET /v1/phases", s.instrument("/v1/phases", s.handlePhases))
	mux.HandleFunc("GET /v1/traces/{trace}", s.instrument("/v1/traces/{trace}", s.handleTraceByID))
	mux.HandleFunc("GET /debug/slow", s.handleSlow)
	mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleCancel(kindJob)))
	if s.opts.Fleet != nil {
		mux.HandleFunc("GET /v1/fleet/metrics", s.instrument("/v1/fleet/metrics", s.handleFleetMetrics))
		mux.HandleFunc("GET /v1/fleet/status", s.instrument("/v1/fleet/status", s.handleFleetStatus))
	}
	return AccessLog(mux, s.tracer, s.log)
}

// handleHealth reports liveness: the process is up and serving. It
// stays 200 through a drain — a draining daemon is healthy, just not
// accepting work — so supervisors don't kill a drain mid-flight.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReady reports readiness to accept NEW jobs: 503 from the
// moment the drain starts (before the listener closes), so load
// balancers and wsrsload stop routing work at the first SIGTERM.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// ErrorEnvelope is the uniform JSON error body of every non-2xx
// response: the message, the validation detail when the request itself
// is wrong (same field/error/valid keys as *RequestError, so existing
// decoders keep working), the admission detail on 429, and the request
// trace ID so a failed call can be correlated with server logs.
type ErrorEnvelope struct {
	Msg      string   `json:"error"`
	Field    string   `json:"field,omitempty"`
	Valid    []string `json:"valid,omitempty"`
	Pending  int64    `json:"pending_cells,omitempty"`
	QueueCap int      `json:"queue_cap,omitempty"`
	TraceID  string   `json:"trace_id,omitempty"`
	// Member names the process that originated the error, so an
	// envelope a coordinator relays from a backend still points at the
	// daemon whose logs (and trace ring) hold the failure.
	Member string `json:"member,omitempty"`
}

// writeError stamps the request's trace ID and this process's identity
// into the envelope and writes it with the given status.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, env ErrorEnvelope) {
	if c := requestCtx(r).Trace; c != 0 {
		env.TraceID = otrace.FormatTraceID(c)
	}
	if env.Member == "" {
		env.Member = s.process
	}
	writeJSON(w, status, env)
}

// writeJSON writes one JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The admission span: decode, validation and the queue-room check,
	// parented to the access-log middleware's http span so the whole
	// decision shows up inside the request slice.
	adm := s.tracer.Begin("admission", requestCtx(r))
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
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		outcome = "invalid"
		s.writeError(w, r, http.StatusBadRequest, ErrorEnvelope{Field: "body", Msg: err.Error()})
		return
	}
	ids, err := req.expand()
	if err != nil {
		outcome = "invalid"
		s.reg.Counter(mJobs+telemetry.Labels("outcome", "invalid"), helpJobs).Inc()
		env := ErrorEnvelope{Msg: err.Error()}
		var re *RequestError
		if errors.As(err, &re) {
			env = ErrorEnvelope{Msg: re.Msg, Field: re.Field, Valid: re.Valid}
		}
		s.writeError(w, r, http.StatusBadRequest, env)
		return
	}
	if s.opts.MaxMeasure > 0 {
		for i, id := range ids {
			if id.Measure > s.opts.MaxMeasure {
				outcome = "invalid"
				s.writeError(w, r, http.StatusBadRequest, ErrorEnvelope{
					Field: fmt.Sprintf("cells[%d].measure", i),
					Msg:   fmt.Sprintf("measure %d exceeds the server cap %d", id.Measure, s.opts.MaxMeasure)})
				return
			}
		}
	}
	// Admission control: reserve queue room for the whole job or
	// reject it now, before any state is created.
	if err := s.reservePending(len(ids)); err != nil {
		outcome = "rejected"
		s.reg.Counter(mJobs+telemetry.Labels("outcome", "rejected"), helpJobs).Inc()
		w.Header().Set("Retry-After", "1")
		s.writeError(w, r, http.StatusTooManyRequests, ErrorEnvelope{
			Msg: "queue full", Pending: s.pending.Load(), QueueCap: s.opts.MaxQueuedCells})
		return
	}

	t := s.newTask(r, req.Label)
	t.cells = make([]CellStatus, len(ids))
	t.results = make([]wsrs.Result, len(ids))
	for i, id := range ids {
		t.cells[i] = CellStatus{Index: i, Cell: id, Digest: id.Digest(), State: StateQueued}
	}
	s.publish(t)
	adm.SetStr("job_id", t.id)

	s.reg.Gauge(mJobsActive, helpJobsActive).Add(1)
	s.jobWG.Add(1)
	go s.runJob(t, ids)

	s.log.LogAttrs(r.Context(), slog.LevelInfo, "job accepted",
		slog.String("job_id", t.id),
		slog.String("trace_id", otrace.FormatTraceID(t.trace)),
		slog.String("label", t.label),
		slog.Int("cells", len(ids)))

	w.Header().Set("Location", "/v1/jobs/"+t.id)
	writeJSON(w, http.StatusAccepted, t.status())
}

// handleResults serves the raw per-cell wsrs.Result slice in cell
// order — the byte-identical counterpart of a direct RunGrid call
// (asserted by TestJobResultsMatchRunGrid).
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(w, r, kindJob)
	if t == nil {
		return
	}
	t.mu.Lock()
	state, results := t.state, append([]wsrs.Result(nil), t.results...)
	t.mu.Unlock()
	if state != StateDone {
		s.writeError(w, r, http.StatusConflict, ErrorEnvelope{
			Msg: fmt.Sprintf("job %s is %s; results require state %q", t.id, state, StateDone)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(results)
}

// handleCacheFetch serves one result out of the local content-
// addressed cache by digest — the peer-fetch tier of a fleet: a
// coordinator or member daemon asks a cell's consistent-hash home for
// the result before simulating it anywhere. 404 means "not here",
// never an error worth retrying.
func (s *Server) handleCacheFetch(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	res, ok := s.cache.Get(digest)
	if !ok {
		s.reg.Counter(mPeerServes+telemetry.Labels("outcome", "miss"), helpPeerServes).Inc()
		s.writeError(w, r, http.StatusNotFound,
			ErrorEnvelope{Msg: fmt.Sprintf("no cached result for digest %q", digest)})
		return
	}
	s.reg.Counter(mPeerServes+telemetry.Labels("outcome", "hit"), helpPeerServes).Inc()
	writeJSON(w, http.StatusOK, res)
}

// runJob resolves every cell of one accepted job as a single round,
// with per-cell events firing as each resolves, in completion order.
func (s *Server) runJob(t *task, ids []cellcache.CellID) {
	defer s.jobWG.Done()
	defer s.reg.Gauge(mJobsActive, helpJobsActive).Add(-1)
	t.setRunning()
	s.resolveCells(t.ctx, t, ids, t.resolveCell)

	st := t.status().(JobStatus)
	state, msg := StateDone, ""
	switch {
	case t.ctx.Err() != nil:
		state, msg = StateCanceled, "canceled"
	case st.CellsFailed > 0:
		state = StateFailed
		msg = fmt.Sprintf("%d of %d cells failed", st.CellsFailed, st.CellsTotal)
		for _, c := range st.Cells {
			if c.Error != "" {
				msg = fmt.Sprintf("%s; first: %s/%s: %s", msg, c.Cell.Kernel, c.Cell.Config, c.Error)
				break
			}
		}
	}
	s.reg.Counter(mJobs+telemetry.Labels("outcome", state), helpJobs).Inc()

	// Close the trace: emit the root "job" span, record the total phase,
	// rank the job in the /debug/slow ring, and log the outcome with its
	// phase decomposition — all before the terminal state is published,
	// so a client that saw it finds them.
	endNs := otrace.Now()
	total := time.Duration(endNs - t.startNs)
	s.accrue(t, PhaseTotal, total)
	root := s.rootSpan(t, state, endNs)
	root.SetInt("cells", int64(st.CellsTotal))
	if t.label != "" {
		root.SetStr("label", t.label)
	}
	s.tracer.Append(&root)
	s.syncTraceMetrics()
	phaseMs := t.phaseMs()
	s.slow.add(SlowJob{
		JobID:    t.id,
		TraceID:  otrace.FormatTraceID(t.trace),
		Label:    t.label,
		State:    state,
		Cells:    st.CellsTotal,
		TotalMs:  float64(total.Microseconds()) / 1000,
		PhaseMs:  phaseMs,
		Finished: time.Now(),
	})
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "job finished",
		slog.String("job_id", t.id),
		slog.String("trace_id", otrace.FormatTraceID(t.trace)),
		slog.String("state", state),
		slog.Int("cells", st.CellsTotal),
		slog.Int("cells_failed", st.CellsFailed),
		slog.Float64("total_ms", float64(total.Microseconds())/1000),
		slog.Any("phase_ms", phaseMs))
	s.finish(t, state, msg)
}

// acquireFlight subscribes to the in-flight simulation for digest,
// creating and enqueueing a fresh flight when no identical cell is
// already running (singleflight). resolveCells waits on the returned
// flight's done channel. coalesced reports whether an existing flight
// was joined. The new flight carries tctx (the queue-wait and simulate
// spans parent there) and owner (its phase decomposition absorbs their
// durations).
func (s *Server) acquireFlight(id cellcache.CellID, digest string, tctx otrace.Ctx, owner *task) (*flight, bool) {
	s.mu.Lock()
	fl, coalesced := s.flights[digest]
	if coalesced && !fl.join() {
		// The in-flight leader was canceled between our map lookup
		// and the join: start over with a fresh flight.
		coalesced = false
	}
	if !coalesced {
		fl = &flight{
			ctx:      tctx,
			owner:    owner,
			enqueued: otrace.Now(),
			cancel:   make(chan struct{}),
			waiters:  1,
			done:     make(chan struct{}),
		}
		s.flights[digest] = fl
	}
	s.mu.Unlock()
	if coalesced {
		s.reg.Counter(mCoalesced, helpCoalesced).Inc()
	} else {
		s.queue <- &cellTask{id: id, digest: digest, fl: fl}
	}
	return fl, coalesced
}

// syncTraceMetrics reconciles the trace-ring gauges with the recorder.
func (s *Server) syncTraceMetrics() {
	s.reg.Gauge(mTraceSpans, helpTraceSpans).Set(int64(s.tracer.Len()))
	evicted := s.tracer.Total() - uint64(s.tracer.Len())
	c := s.reg.Counter(mTraceEvicted, helpTraceEvict)
	if d := evicted - c.Load(); d > 0 && d < 1<<63 {
		c.Add(d)
	}
}

func (s *Server) cellDone() {
	s.reg.Gauge(mPending, helpPending).Set(s.pending.Add(-1))
}

// runFlight resolves one coalesced cell on a pool worker: the
// peer-fetch cache tier first when one is configured, then either the
// delegated CellRunner (coordinator mode) or a local simulation
// through wsrs.RunGrid (parallelism 1: the pool supplies the
// concurrency), inheriting its panic barrier and budget plumbing. The
// queue-wait and simulate spans parent to the leader cell's span, and
// their durations accrue to the owning task's phase decomposition. The
// flight's cancel channel aborts the work mid-simulation as soon as
// the last waiting job has abandoned it.
func (s *Server) runFlight(t *cellTask, worker int) {
	if t.fl.abandoned() {
		s.removeFlight(t)
		t.fl.resolve(wsrs.Result{}, context.Canceled, 0)
		return
	}
	// The queue-wait span opened when the task was enqueued and closes
	// now that a worker picked it up.
	qsp := s.tracer.Make("queue.wait", t.fl.ctx, t.fl.enqueued, otrace.Now())
	qsp.SetInt("worker", int64(worker))
	s.tracer.Append(&qsp)
	s.accrue(t.fl.owner, PhaseQueue, time.Duration(qsp.Dur()))

	// A context that dies with the daemon or with the flight's last
	// waiter, for the remote legs (peer fetch, delegated runner).
	ctx, cancelCtx := context.WithCancel(s.ctx)
	defer cancelCtx()
	go func() {
		select {
		case <-t.fl.cancel:
			cancelCtx()
		case <-ctx.Done():
		}
	}()

	// The peer-fetch cache tier: before simulating, ask the digest's
	// consistent-hash home peer whether it already holds the result.
	if s.opts.Peers != nil && s.opts.Runner == nil {
		psp := s.tracer.Begin("cache.peer", t.fl.ctx)
		res, ok := s.opts.Peers.FetchPeer(ctx, t.digest)
		psp.SetBool("hit", ok)
		s.tracer.End(&psp)
		if ok {
			s.reg.Counter(mPeerHits, helpPeerHits).Inc()
			s.reg.Counter(mCacheStores, helpCacheStores).Inc()
			s.cache.Put(t.id, res)
			s.reg.Gauge(mCacheEntries, helpCacheEntries).Set(int64(s.cache.Len()))
			t.fl.resolvedVia(CachePeer)
			s.removeFlight(t)
			t.fl.resolve(res, nil, time.Duration(psp.Dur()))
			return
		}
		s.reg.Counter(mPeerMisses, helpPeerMisses).Inc()
	}

	sim := s.tracer.Begin("simulate", t.fl.ctx)
	sim.SetStr("kernel", t.id.Kernel)
	sim.SetStr("config", t.id.Config)
	sim.SetInt("worker", int64(worker))

	var res wsrs.Result
	var err error
	var wall time.Duration
	if s.opts.Runner != nil {
		sim.SetBool("remote", true)
		s.reg.Counter(mRunnerCells, helpRunnerCells).Inc()
		start := time.Now()
		// The simulate span's context rides the ctx so the runner (a
		// fleet coordinator) parents its fleet.cell span here and
		// injects the same trace into every backend request — the
		// cross-process half of trace stitching.
		res, wall, err = s.opts.Runner.RunCell(otrace.ContextWith(ctx, sim.Ctx()), t.id)
		if wall <= 0 {
			wall = time.Since(start)
		}
	} else {
		s.reg.Counter(mSims, helpSims).Inc()
		opts := wsrs.SimOpts{
			WarmupInsts:  t.id.Warmup,
			MeasureInsts: t.id.Measure,
			Seed:         t.id.Seed,
			Telemetry:    t.id.Telemetry,
			Observer:     wsrs.NewTraceObserver(s.tracer, sim.Ctx()),
			Cancel:       t.fl.cancel,
		}
		cell := wsrs.GridCell{
			Kernel: t.id.Kernel,
			Config: wsrs.ConfigName(t.id.Config),
			Policy: t.id.Policy,
			Seed:   t.id.Seed,
		}
		cell, err = withMods(cell, t.id.Mods)
		if err == nil {
			start := time.Now()
			var out []wsrs.GridResult
			out, err = wsrs.RunGrid([]wsrs.GridCell{cell}, opts, 1)
			wall = time.Since(start)
			if len(out) == 1 {
				res = out[0].Result
			}
		}
	}
	s.reg.Histogram(mSimMs, helpSimMs).Observe(uint64(wall.Milliseconds()))
	canceled := err != nil && errors.Is(err, context.Canceled)
	if canceled {
		s.reg.Counter(mSimsCanceled, helpSimsCanceled).Inc()
		sim.SetStr("outcome", "canceled")
	}
	sim.SetBool("ok", err == nil)
	s.tracer.End(&sim)
	// The flight recorder keeps a per-cell summary window; a failed
	// cell additionally snapshots the black box under a reason derived
	// from the failure class (watchdog, check, panic).
	if err == nil {
		s.fr.Record(flightrec.Event{
			Kind: flightrec.KindSim, Name: "cell",
			Digest: t.digest, Value: res.Cycles,
		})
	} else if !canceled {
		s.fr.Record(flightrec.Event{
			Kind: flightrec.KindSim, Name: "cell-failed",
			Digest: t.digest, Detail: err.Error(),
		})
		s.fr.Snapshot(failureReason(err), t.digest, err.Error())
	}
	s.accrue(t.fl.owner, PhaseSimulate, wall)
	if err == nil {
		s.reg.Counter(mCacheStores, helpCacheStores).Inc()
		s.cache.Put(t.id, res)
		s.reg.Gauge(mCacheEntries, helpCacheEntries).Set(int64(s.cache.Len()))
		if s.cache.Degraded() {
			s.reg.Gauge(mCacheDegraded, helpCacheDegraded).Set(1)
		}
	}
	s.removeFlight(t)
	t.fl.resolve(res, err, wall)
}

// withMods applies a cell identity's canonical mods string to a grid
// cell. Admission validated the string, so a parse failure here means
// a corrupted identity, surfaced as the cell's error.
func withMods(cell wsrs.GridCell, mods string) (wsrs.GridCell, error) {
	if mods == "" {
		return cell, nil
	}
	ms, err := wsrs.ParseMods(mods)
	if err != nil {
		return cell, err
	}
	cell.Mods = ms
	cell.ModsKey = mods
	return cell, nil
}

// removeFlight unpublishes a flight, but only while the map still
// points at it — a canceled flight may already have been replaced by
// a fresh one for the same digest.
func (s *Server) removeFlight(t *cellTask) {
	s.mu.Lock()
	if s.flights[t.digest] == t.fl {
		delete(s.flights, t.digest)
	}
	s.mu.Unlock()
}

// Drain shuts the daemon down gracefully: new jobs are refused (503),
// every accepted job runs to its terminal state, the worker pool
// exits, and the cache is flushed (compacting the JSONL file). If ctx
// expires first, the remaining jobs are canceled and drained as
// canceled — still no accepted job is left unresolved.
func (s *Server) Drain(ctx context.Context) error {
	var err error
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		s.reg.Gauge(mDraining, helpDraining).Set(1)
		done := make(chan struct{})
		go func() { s.jobWG.Wait(); close(done) }()
		select {
		case <-done:
		case <-ctx.Done():
			s.cancel() // cancel every job context; waiters abandon their flights
			<-done
		}
		close(s.queue)
		s.workerWG.Wait()
		s.cancel()
		err = s.cache.Close()
	})
	return err
}

// endpointLabel canonicalizes a mux pattern for metric labels.
func endpointLabel(pattern string) string {
	return strings.TrimSpace(pattern)
}
