package otrace

import (
	"encoding/json"
	"fmt"
	"io"

	"wsrs/internal/telemetry"
)

// SpanJSON is the wire shape of one span: what GET
// /v1/jobs/{id}/trace serves, wsrsbench -spans writes, and cmd/telcheck
// validates. IDs are zero-padded hex so they grep cleanly against the
// trace_id fields of structured log lines.
type SpanJSON struct {
	TraceID  string         `json:"trace_id"`
	SpanID   string         `json:"span_id"`
	ParentID string         `json:"parent_id,omitempty"`
	Name     string         `json:"name"`
	StartUs  float64        `json:"start_us"`
	DurUs    float64        `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// FormatTraceID renders a trace ID the way every export and log line
// spells it (16 hex digits).
func FormatTraceID(t TraceID) string { return fmt.Sprintf("%016x", uint64(t)) }

// FormatSpanID renders a span ID for export.
func FormatSpanID(s SpanID) string { return fmt.Sprintf("%016x", uint64(s)) }

// JSON converts one span to its wire shape.
func (s *Span) JSON() SpanJSON {
	out := SpanJSON{
		TraceID: FormatTraceID(s.Trace),
		SpanID:  FormatSpanID(s.ID),
		Name:    s.Name,
		StartUs: float64(s.Start) / 1e3,
		DurUs:   float64(s.Dur()) / 1e3,
	}
	if s.Parent != 0 {
		out.ParentID = FormatSpanID(s.Parent)
	}
	if s.NAttrs > 0 {
		out.Attrs = make(map[string]any, s.NAttrs)
		for i := 0; i < s.NAttrs; i++ {
			out.Attrs[s.Attrs[i].Key] = s.Attrs[i].Value()
		}
	}
	return out
}

// Document is a span set plus its trace identity — the JSON framing
// of the trace endpoint and the -spans artifact.
type Document struct {
	JobID   string `json:"job_id,omitempty"`
	TraceID string `json:"trace_id"`
	Label   string `json:"label,omitempty"`
	// Evicted counts spans of this recorder lost to ring wraparound
	// since the last Reset — non-zero means the document may be
	// missing early spans.
	Evicted uint64 `json:"evicted_spans,omitempty"`
	// EpochUs anchors this process's monotonic span timestamps to the
	// wall clock (Unix µs at monotonic zero) so a stitcher can rebase
	// documents from several processes onto one timeline.
	EpochUs float64    `json:"epoch_unix_us,omitempty"`
	Spans   []SpanJSON `json:"spans"`
}

// NewDocument assembles the wire document for a span set.
func NewDocument(trace TraceID, spans []Span) Document {
	doc := Document{
		TraceID: FormatTraceID(trace),
		EpochUs: EpochUnixUs(),
		Spans:   make([]SpanJSON, len(spans)),
	}
	for i := range spans {
		doc.Spans[i] = spans[i].JSON()
	}
	return doc
}

// WriteDocument writes the document as indented JSON.
func WriteDocument(w io.Writer, doc Document) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// TraceEvent converts one span to a Chrome trace-event slice on the
// given process/thread track, carrying the trace identity and the
// typed attributes in args. Timestamps convert from monotonic
// nanoseconds to the microseconds Perfetto expects, so service spans
// land on the same timeline as the host worker track of
// wsrs.GridTelemetry, which renders its grid.cell spans the same way
// (see ChromeEvents).
func (s *Span) TraceEvent(pid, tid int) telemetry.TraceEvent {
	ev := telemetry.CompleteEvent(s.Name, "span",
		float64(s.Start)/1e3, float64(s.Dur())/1e3, pid, tid)
	args := map[string]any{
		"trace_id": FormatTraceID(s.Trace),
		"span_id":  FormatSpanID(s.ID),
	}
	if s.Parent != 0 {
		args["parent_id"] = FormatSpanID(s.Parent)
	}
	for i := 0; i < s.NAttrs; i++ {
		args[s.Attrs[i].Key] = s.Attrs[i].Value()
	}
	ev.Args = args
	return ev
}

// ChromeEvents lays spans out on Perfetto tracks of the named process:
// pid 1 is the service (tid 1 the job lifecycle, one tid per cell past
// 10), pid 2 the worker pool (one tid per pool worker, carrying every
// span with a worker attribute: queue.wait, simulate, grid.cell). A
// track is named on first use. wsrsd's job trace and the wsrsbench
// host trace both render through it, so they share one convention.
func ChromeEvents(process string, spans []Span) []telemetry.TraceEvent {
	const pidService, pidWorkers = 1, 2
	var events []telemetry.TraceEvent
	named := map[[2]int]bool{}
	track := func(pid, tid int, proc, thread string) {
		if k := [2]int{pid, 0}; !named[k] {
			named[k] = true
			events = append(events, telemetry.MetadataEvent("process_name", process+" "+proc, pid, 0))
		}
		if k := [2]int{pid, tid}; !named[k] {
			named[k] = true
			events = append(events, telemetry.MetadataEvent("thread_name", thread, pid, tid))
		}
	}
	for i := range spans {
		sp := &spans[i]
		pid, tid, proc, thread := pidService, 1, "service", "job lifecycle"
		if wv, ok := sp.Attr("worker").(int64); ok {
			pid, tid, proc, thread = pidWorkers, int(wv)+1, "workers", fmt.Sprintf("worker %d", wv)
		} else if cv, ok := sp.Attr("cell").(int64); ok {
			tid, thread = 10+int(cv), fmt.Sprintf("cell %d", cv)
		}
		track(pid, tid, proc, thread)
		events = append(events, sp.TraceEvent(pid, tid))
	}
	return events
}
