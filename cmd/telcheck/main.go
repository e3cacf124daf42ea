// Command telcheck validates the telemetry artifacts a wsrsbench run
// produces, so CI can assert they are well-formed without external
// tooling:
//
//	telcheck -manifest run.json            # JSON run manifest
//	telcheck -trace host.json              # Chrome trace JSON
//	telcheck -metrics metrics.txt          # Prometheus text exposition
//	telcheck -spans spans.json             # otrace span document
//	telcheck -fleet-trace stitched.json    # stitched multi-process trace
//	telcheck -fleet-trace s.json -require-processes 3
//	telcheck -manifest run.json -require-activity
//	telcheck -explore frontier.json        # explore frontier document
//
// Each artifact is parsed structurally (digest shape, per-cell
// outcomes, trace event phases, exposition grammar) and the process
// exits non-zero on the first violation, naming it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

func main() {
	manifest := flag.String("manifest", "", "validate this JSON run manifest")
	trace := flag.String("trace", "", "validate this Chrome trace JSON file")
	metrics := flag.String("metrics", "", "validate this Prometheus text exposition file")
	spans := flag.String("spans", "", "validate this otrace span document (wsrsbench -spans or GET /v1/jobs/{id}/trace)")
	fleetTrace := flag.String("fleet-trace", "", "validate this stitched multi-process trace document (coordinator GET /v1/jobs/{id}/trace)")
	exploreDoc := flag.String("explore", "", "validate this explore frontier document (wsrsexplore -out or GET /v1/explore/{id}/frontier)")
	requireActivity := flag.Bool("require-activity", false, "fail if the manifest lacks aggregated activity counts (telemetry was off)")
	requireSpan := flag.String("require-span", "", "comma-separated span names the document must contain (e.g. job,cell,simulate)")
	requireProcesses := flag.Int("require-processes", 2, "fleet-trace: minimum live process tracks with spans")
	allowFailed := flag.Bool("allow-failed", false, "tolerate failed cells in the manifest")
	flag.Parse()

	if *manifest == "" && *trace == "" && *metrics == "" && *spans == "" && *fleetTrace == "" && *exploreDoc == "" {
		fmt.Fprintln(os.Stderr, "telcheck: nothing to check; pass -manifest, -trace, -metrics, -spans, -fleet-trace and/or -explore")
		os.Exit(2)
	}
	if *manifest != "" {
		checkManifest(*manifest, *requireActivity, *allowFailed)
	}
	if *trace != "" {
		checkTrace(*trace)
	}
	if *metrics != "" {
		checkMetrics(*metrics)
	}
	if *spans != "" {
		checkSpans(*spans, *requireSpan)
	}
	if *fleetTrace != "" {
		checkFleetTrace(*fleetTrace, *requireProcesses, *requireSpan)
	}
	if *exploreDoc != "" {
		checkExplore(*exploreDoc)
	}
	fmt.Println("telcheck: all artifacts OK")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "telcheck: "+format+"\n", args...)
	os.Exit(1)
}

var hexDigest = regexp.MustCompile(`^[0-9a-f]{64}$`)

func checkManifest(path string, requireActivity, allowFailed bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	var m struct {
		ConfigDigest string            `json:"config_digest"`
		CellsTotal   int               `json:"cells_total"`
		CellsFailed  int               `json:"cells_failed"`
		Activity     map[string]uint64 `json:"activity"`
		Cells        []struct {
			Index  int     `json:"index"`
			Kernel string  `json:"kernel"`
			Config string  `json:"config"`
			IPC    float64 `json:"ipc"`
			Error  string  `json:"error"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		fatalf("%s: not valid JSON: %v", path, err)
	}
	if !hexDigest.MatchString(m.ConfigDigest) {
		fatalf("%s: config_digest %q is not a sha256 hex string", path, m.ConfigDigest)
	}
	if m.CellsTotal != len(m.Cells) {
		fatalf("%s: cells_total %d but %d cells recorded", path, m.CellsTotal, len(m.Cells))
	}
	if m.CellsTotal == 0 {
		fatalf("%s: manifest records no cells", path)
	}
	failed := 0
	for i, c := range m.Cells {
		if c.Index != i {
			fatalf("%s: cells not sorted by index (cell %d has index %d)", path, i, c.Index)
		}
		if c.Kernel == "" || c.Config == "" {
			fatalf("%s: cell %d missing kernel/config identity", path, i)
		}
		if c.Error != "" {
			failed++
		} else if c.IPC <= 0 {
			fatalf("%s: cell %d (%s/%s) succeeded with non-positive IPC %g", path, i, c.Kernel, c.Config, c.IPC)
		}
	}
	if failed != m.CellsFailed {
		fatalf("%s: cells_failed %d but %d cells carry errors", path, m.CellsFailed, failed)
	}
	if failed > 0 && !allowFailed {
		fatalf("%s: %d cells failed", path, failed)
	}
	if requireActivity && m.Activity["wakeup_events"] == 0 {
		fatalf("%s: no aggregated activity counts (was the grid run with telemetry?)", path)
	}
	fmt.Printf("telcheck: manifest %s: %d cells, %d failed, digest %s...\n",
		path, m.CellsTotal, failed, m.ConfigDigest[:12])
}

func checkTrace(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	var t struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &t); err != nil {
		fatalf("%s: not valid JSON: %v", path, err)
	}
	if len(t.TraceEvents) == 0 {
		fatalf("%s: trace has no events", path)
	}
	slices := 0
	for i, e := range t.TraceEvents {
		switch e.Ph {
		case "X":
			slices++
			if e.Dur <= 0 {
				fatalf("%s: event %d (%s) is a complete slice with non-positive duration", path, i, e.Name)
			}
		case "M":
		default:
			fatalf("%s: event %d (%s) has unexpected phase %q", path, i, e.Name, e.Ph)
		}
		if e.Name == "" {
			fatalf("%s: event %d has no name", path, i)
		}
	}
	if slices == 0 {
		fatalf("%s: trace has metadata but no slices", path)
	}
	fmt.Printf("telcheck: trace %s: %d events (%d slices)\n", path, len(t.TraceEvents), slices)
}

var hexID = regexp.MustCompile(`^[0-9a-f]{16}$`)

// checkSpans validates an otrace span document: every span carries the
// document's trace ID (or a linked one), IDs are 16-digit hex, spans
// are well-timed (non-negative duration), parent references resolve
// within the document, and — when -require-span is given — the named
// span names all occur.
func checkSpans(path, require string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	var doc struct {
		JobID   string `json:"job_id"`
		TraceID string `json:"trace_id"`
		Spans   []struct {
			TraceID  string         `json:"trace_id"`
			SpanID   string         `json:"span_id"`
			ParentID string         `json:"parent_id"`
			Name     string         `json:"name"`
			StartUs  float64        `json:"start_us"`
			DurUs    float64        `json:"dur_us"`
			Attrs    map[string]any `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		fatalf("%s: not valid JSON: %v", path, err)
	}
	if !hexID.MatchString(doc.TraceID) {
		fatalf("%s: trace_id %q is not 16 hex digits", path, doc.TraceID)
	}
	if len(doc.Spans) == 0 {
		fatalf("%s: span document has no spans", path)
	}
	// Traces a span may legitimately belong to: the document's own,
	// plus any trace named by a link_trace attribute (coalesced-waiter
	// linkage pulls the leader's trace into the document).
	traces := map[string]bool{doc.TraceID: true}
	for _, s := range doc.Spans {
		if lt, ok := s.Attrs["link_trace"].(string); ok {
			traces[lt] = true
		}
	}
	ids := map[string]bool{}
	names := map[string]int{}
	for i, s := range doc.Spans {
		if s.Name == "" {
			fatalf("%s: span %d has no name", path, i)
		}
		if !hexID.MatchString(s.SpanID) {
			fatalf("%s: span %d (%s): span_id %q is not 16 hex digits", path, i, s.Name, s.SpanID)
		}
		if !traces[s.TraceID] {
			fatalf("%s: span %d (%s) belongs to trace %q, neither the document's %q nor a linked one",
				path, i, s.Name, s.TraceID, doc.TraceID)
		}
		if s.DurUs < 0 {
			fatalf("%s: span %d (%s) has negative duration %g", path, i, s.Name, s.DurUs)
		}
		ids[s.SpanID] = true
		names[s.Name]++
	}
	for i, s := range doc.Spans {
		if s.ParentID != "" && !ids[s.ParentID] {
			fatalf("%s: span %d (%s): parent %q not in document", path, i, s.Name, s.ParentID)
		}
	}
	if require != "" {
		for _, want := range strings.Split(require, ",") {
			want = strings.TrimSpace(want)
			if want != "" && names[want] == 0 {
				fatalf("%s: no %q span in document (have: %v)", path, want, names)
			}
		}
	}
	fmt.Printf("telcheck: spans %s: %d spans, %d names, trace %s\n",
		path, len(doc.Spans), len(names), doc.TraceID)
}

// checkFleetTrace validates a stitched multi-process trace document
// (the coordinator's GET /v1/jobs/{id}/trace in fleet mode): the
// document identity, one track per process with the coordinator's own
// first, at least minProcesses live tracks actually carrying spans,
// well-formed hex IDs throughout, and parent references that resolve
// against the union of every track's span IDs — a stitched document
// must not contain orphan parents, because the propagated context
// guarantees the parent span exists in some process's ring.
func checkFleetTrace(path string, minProcesses int, require string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	type spanDoc struct {
		TraceID  string         `json:"trace_id"`
		SpanID   string         `json:"span_id"`
		ParentID string         `json:"parent_id"`
		Name     string         `json:"name"`
		DurUs    float64        `json:"dur_us"`
		Attrs    map[string]any `json:"attrs"`
	}
	var doc struct {
		JobID     string `json:"job_id"`
		TraceID   string `json:"trace_id"`
		Fleet     bool   `json:"fleet"`
		Processes []struct {
			Process string    `json:"process"`
			Stale   bool      `json:"stale"`
			Error   string    `json:"error"`
			Spans   []spanDoc `json:"spans"`
		} `json:"processes"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		fatalf("%s: not valid JSON: %v", path, err)
	}
	if !doc.Fleet {
		fatalf("%s: document is not marked fleet:true (single-process trace?)", path)
	}
	if !hexID.MatchString(doc.TraceID) {
		fatalf("%s: trace_id %q is not 16 hex digits", path, doc.TraceID)
	}
	if len(doc.Processes) == 0 {
		fatalf("%s: stitched document has no process tracks", path)
	}
	if doc.Processes[0].Stale {
		fatalf("%s: first track (%q) is stale; track 0 must be the coordinator's own",
			path, doc.Processes[0].Process)
	}
	// Pass 1: identity, per-span shape, and the union of span IDs and
	// legitimately linked traces across every track.
	ids := map[string]bool{}
	traces := map[string]bool{doc.TraceID: true}
	names := map[string]int{}
	live := 0
	seenProc := map[string]bool{}
	for pi, p := range doc.Processes {
		if p.Process == "" {
			fatalf("%s: process track %d has no name", path, pi)
		}
		if seenProc[p.Process] {
			fatalf("%s: duplicate process track %q", path, p.Process)
		}
		seenProc[p.Process] = true
		if p.Stale {
			if p.Error == "" {
				fatalf("%s: stale track %q carries no error", path, p.Process)
			}
			continue
		}
		if len(p.Spans) > 0 {
			live++
		}
		for si, s := range p.Spans {
			if s.Name == "" {
				fatalf("%s: %s span %d has no name", path, p.Process, si)
			}
			if !hexID.MatchString(s.SpanID) {
				fatalf("%s: %s span %d (%s): span_id %q is not 16 hex digits",
					path, p.Process, si, s.Name, s.SpanID)
			}
			if s.DurUs < 0 {
				fatalf("%s: %s span %d (%s) has negative duration %g",
					path, p.Process, si, s.Name, s.DurUs)
			}
			if ids[s.SpanID] {
				fatalf("%s: span ID %s appears twice in the stitched document — cross-process ID collision",
					path, s.SpanID)
			}
			ids[s.SpanID] = true
			names[s.Name]++
			if lt, ok := s.Attrs["link_trace"].(string); ok {
				traces[lt] = true
			}
		}
	}
	if live < minProcesses {
		fatalf("%s: only %d live process tracks carry spans, want >= %d", path, live, minProcesses)
	}
	// Pass 2: trace membership and parent resolution against the union.
	for _, p := range doc.Processes {
		for si, s := range p.Spans {
			if !traces[s.TraceID] {
				fatalf("%s: %s span %d (%s) belongs to trace %q, neither the document's %q nor a linked one",
					path, p.Process, si, s.Name, s.TraceID, doc.TraceID)
			}
			if s.ParentID != "" && !ids[s.ParentID] {
				fatalf("%s: %s span %d (%s): parent %q not in any track — orphan parent in stitched document",
					path, p.Process, si, s.Name, s.ParentID)
			}
		}
	}
	if require != "" {
		for _, want := range strings.Split(require, ",") {
			want = strings.TrimSpace(want)
			if want != "" && names[want] == 0 {
				fatalf("%s: no %q span in stitched document (have: %v)", path, want, names)
			}
		}
	}
	fmt.Printf("telcheck: fleet-trace %s: %d tracks (%d live), %d spans, trace %s\n",
		path, len(doc.Processes), live, len(ids), doc.TraceID)
}

// exploreEval mirrors the objective fields of one explore.Eval — the
// checker re-verifies Pareto properties from the serialized objectives
// alone, with no dependency on the explore package.
type exploreEval struct {
	Digest   string  `json:"digest"`
	IPC      float64 `json:"ipc"`
	EnergyPJ float64 `json:"energy_pj_per_inst"`
	Area     float64 `json:"area_units"`
}

// dominates re-implements explore.Dominates over serialized
// objectives: no worse on every axis (IPC maximized; energy and area
// minimized), strictly better on at least one.
func dominates(a, b exploreEval) bool {
	if a.IPC < b.IPC || a.EnergyPJ > b.EnergyPJ || a.Area > b.Area {
		return false
	}
	return a.IPC > b.IPC || a.EnergyPJ < b.EnergyPJ || a.Area < b.Area
}

// checkExplore validates an explore frontier document: well-formed
// digests, consistent point accounting (selected = evaluated + pruned
// for exhaustive strategies), a frontier that is genuinely
// non-dominated (re-verified pairwise from the serialized objectives),
// and dominated-point provenance whose witness is a frontier member
// that actually dominates it.
func checkExplore(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	var doc struct {
		Version     int    `json:"version"`
		SpaceDigest string `json:"space_digest"`
		Strategy    string `json:"strategy"`
		RawPoints   int    `json:"raw_points"`
		Skipped     int    `json:"skipped_invalid"`
		Selected    int    `json:"selected"`
		Evaluated   int    `json:"evaluated"`
		Frontier    []exploreEval
		Dominated   []struct {
			exploreEval
			DominatedBy string `json:"dominated_by"`
		} `json:"dominated"`
		Pruned []struct {
			Digest string `json:"digest"`
			By     string `json:"pruned_by"`
			Reason string `json:"reason"`
		} `json:"pruned"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		fatalf("%s: not valid JSON: %v", path, err)
	}
	if doc.Version != 1 {
		fatalf("%s: unknown document version %d", path, doc.Version)
	}
	if !hexDigest.MatchString(doc.SpaceDigest) {
		fatalf("%s: space_digest %q is not a sha256 hex string", path, doc.SpaceDigest)
	}
	switch doc.Strategy {
	case "grid", "random", "halving":
	default:
		fatalf("%s: unknown strategy %q", path, doc.Strategy)
	}
	if doc.RawPoints <= 0 {
		fatalf("%s: raw_points %d, want > 0", path, doc.RawPoints)
	}
	if doc.Selected <= 0 || doc.Selected > doc.RawPoints-doc.Skipped {
		fatalf("%s: selected %d outside (0, raw %d - skipped %d]",
			path, doc.Selected, doc.RawPoints, doc.Skipped)
	}
	if doc.Evaluated != len(doc.Frontier)+len(doc.Dominated) {
		fatalf("%s: evaluated %d but frontier %d + dominated %d",
			path, doc.Evaluated, len(doc.Frontier), len(doc.Dominated))
	}
	// Exhaustive strategies account for every selected point; halving
	// drops candidates between rounds, so only the bound holds.
	if doc.Strategy != "halving" && doc.Evaluated+len(doc.Pruned) != doc.Selected {
		fatalf("%s: evaluated %d + pruned %d != selected %d",
			path, doc.Evaluated, len(doc.Pruned), doc.Selected)
	}
	if doc.Evaluated+len(doc.Pruned) > doc.Selected {
		fatalf("%s: evaluated %d + pruned %d exceeds selected %d",
			path, doc.Evaluated, len(doc.Pruned), doc.Selected)
	}
	if len(doc.Frontier) == 0 {
		fatalf("%s: document has an empty frontier", path)
	}

	onFrontier := map[string]exploreEval{}
	seen := map[string]bool{}
	record := func(d string) {
		if !hexDigest.MatchString(d) {
			fatalf("%s: point digest %q is not a sha256 hex string", path, d)
		}
		if seen[d] {
			fatalf("%s: point digest %s appears twice", path, d)
		}
		seen[d] = true
	}
	for _, e := range doc.Frontier {
		record(e.Digest)
		onFrontier[e.Digest] = e
	}
	for i, a := range doc.Frontier {
		for j, b := range doc.Frontier {
			if i != j && dominates(a, b) {
				fatalf("%s: frontier point %s dominates frontier point %s — frontier is not non-dominated",
					path, a.Digest[:12], b.Digest[:12])
			}
		}
	}
	for _, d := range doc.Dominated {
		record(d.Digest)
		w, ok := onFrontier[d.DominatedBy]
		if !ok {
			fatalf("%s: dominated point %s names witness %q not on the frontier",
				path, d.Digest[:12], d.DominatedBy)
		}
		if !dominates(w, d.exploreEval) {
			fatalf("%s: witness %s does not dominate point %s",
				path, w.Digest[:12], d.Digest[:12])
		}
	}
	for i, p := range doc.Pruned {
		record(p.Digest)
		if p.By == "" || p.Reason == "" {
			fatalf("%s: pruned point %d (%s) carries no rule/reason provenance", path, i, p.Digest[:12])
		}
	}
	fmt.Printf("telcheck: explore %s: %s over %d points (%d skipped, %d pruned), frontier %d, dominated %d\n",
		path, doc.Strategy, doc.RawPoints, doc.Skipped, len(doc.Pruned), len(doc.Frontier), len(doc.Dominated))
}

// promLabel is one name="value" label pair. The value is any quoted
// string with \-escapes, so braces inside it (a route pattern such as
// "/v1/cache/{digest}") do not end the label set.
const promLabel = `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"`

// promSample matches one exposition sample line: metric name, optional
// label set, value.
var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)` +
	`(\{(?:` + promLabel + `(?:,` + promLabel + `)*,?)?\})? (.+)$`)

// checkMetrics validates the Prometheus text exposition format 0.0.4
// grammar: every sample line is `name{labels} value`, every family
// seen in a sample has a preceding # TYPE line, and histogram families
// carry _bucket/_sum/_count series.
func checkMetrics(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	typed := map[string]string{}
	samples := 0
	for n, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				fatalf("%s:%d: malformed TYPE line %q", path, n+1, line)
			}
			switch f[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				fatalf("%s:%d: unknown metric type %q", path, n+1, f[3])
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			fatalf("%s:%d: malformed sample line %q", path, n+1, line)
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			fatalf("%s:%d: sample value %q is not a number", path, n+1, m[3])
		}
		family := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(family, suffix); base != family && typed[base] == "histogram" {
				family = base
				break
			}
		}
		if typed[family] == "" {
			fatalf("%s:%d: sample %q has no preceding # TYPE line", path, n+1, m[1])
		}
		samples++
	}
	if samples == 0 {
		fatalf("%s: exposition has no samples", path)
	}
	fmt.Printf("telcheck: metrics %s: %d samples across %d families\n", path, samples, len(typed))
}
