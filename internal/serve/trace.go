package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"wsrs/internal/otrace"
	"wsrs/internal/otrace/federate"
	"wsrs/internal/telemetry"
)

// handleTrace serves the span tree of one job: every span of the job's
// trace still held by the ring, plus — one hop — the spans of traces
// its coalesced waiters link to, so a job that piggybacked on another
// job's flight still shows where the simulation time went. The default
// body is the otrace document; ?format=chrome renders the same spans
// as Chrome trace-event JSON that loads directly into Perfetto, with
// lifecycle spans and worker-pool spans on separate process tracks.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r, kindJob)
	if j == nil {
		return
	}
	spans := s.tracer.TraceSpans(j.trace)
	linked := map[otrace.TraceID]bool{j.trace: true}
	for i := range spans {
		v, ok := spans[i].Attr("link_trace").(string)
		if !ok {
			continue
		}
		id, err := strconv.ParseUint(v, 16, 64)
		if err != nil || linked[otrace.TraceID(id)] {
			continue
		}
		linked[otrace.TraceID(id)] = true
		spans = append(spans, s.tracer.TraceSpans(otrace.TraceID(id))...)
	}
	if s.opts.Fleet != nil {
		s.serveStitchedTrace(w, r, j, spans)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_ = telemetry.WriteTrace(w, otrace.ChromeEvents("wsrsd", spans))
		return
	}
	doc := otrace.NewDocument(j.trace, spans)
	doc.JobID = j.id
	doc.Label = j.label
	doc.Evicted = s.tracer.Total() - uint64(s.tracer.Len())
	w.Header().Set("Content-Type", "application/json")
	_ = otrace.WriteDocument(w, doc)
}

// serveStitchedTrace answers GET /v1/jobs/{id}/trace on a coordinator:
// the local span set becomes the first process track, every fleet
// member is asked (concurrently, under the federation deadline) for
// its spans of the same trace, and the merged multi-track document
// goes out as native JSON or — ?format=chrome — as one Perfetto
// timeline with a named track per process. A member that cannot
// answer contributes a stale track, never an error.
func (s *Server) serveStitchedTrace(w http.ResponseWriter, r *http.Request, j *task, spans []otrace.Span) {
	local := federate.ProcessDoc{
		Process: s.process,
		Evicted: s.tracer.Total() - uint64(s.tracer.Len()),
		EpochUs: otrace.EpochUnixUs(),
		Spans:   make([]otrace.SpanJSON, len(spans)),
	}
	for i := range spans {
		local.Spans[i] = spans[i].JSON()
	}
	fl := s.opts.Fleet
	doc := federate.Stitch(r.Context(), local, otrace.FormatTraceID(j.trace),
		fl.FleetMembers(), fl.FleetTrace, s.opts.FleetScrapeTimeout)
	doc.JobID = j.id
	doc.Label = j.label
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_ = telemetry.WriteTrace(w, federate.ChromeEvents(doc))
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleTraceByID serves GET /v1/traces/{trace}: this process's span
// document for one trace ID, regardless of which job (or remote
// caller) the trace belongs to. This is the member-side fetch of fleet
// trace stitching — the coordinator collects each member's document
// for the propagated trace and merges them.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("trace")
	id, err := strconv.ParseUint(raw, 16, 64)
	if err != nil || id == 0 {
		s.writeError(w, r, http.StatusBadRequest, ErrorEnvelope{
			Field: "trace", Msg: fmt.Sprintf("trace must be a 16-digit hex ID, got %q", raw)})
		return
	}
	spans := s.tracer.TraceSpans(otrace.TraceID(id))
	doc := otrace.NewDocument(otrace.TraceID(id), spans)
	doc.Evicted = s.tracer.Total() - uint64(s.tracer.Len())
	w.Header().Set("Content-Type", "application/json")
	_ = otrace.WriteDocument(w, doc)
}

// handlePhases serves the phase-sample page after the ?since cursor —
// the raw samples behind the wsrsd_phase_us histograms, so clients
// (wsrsload) compute exact percentiles instead of decoding
// power-of-two buckets.
func (s *Server) handlePhases(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, ErrorEnvelope{
				Field: "since", Msg: fmt.Sprintf("since must be a non-negative integer, got %q", v)})
			return
		}
		since = n
	}
	page := s.phases.page(since)
	page.Targets = s.sloTargets
	writeJSON(w, http.StatusOK, page)
}

// handleSlow serves the ring of the slowest recent jobs with their
// phase decompositions, slowest first.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slow.snapshot())
}
