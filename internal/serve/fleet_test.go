package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"wsrs"
	"wsrs/internal/cellcache"
	"wsrs/internal/otrace"
	"wsrs/internal/otrace/federate"
)

// fakeFleet is a FleetObserver with one reachable member (m1, whose
// trace document and metrics are synthesized from a private recorder)
// and one dead member (m2, every fetch errors) — the smallest fleet
// that exercises both the merge and the stale path.
type fakeFleet struct {
	m1 *otrace.Recorder
}

func (f *fakeFleet) FleetMembers() []string { return []string{"m1", "m2"} }

func (f *fakeFleet) FleetTrace(ctx context.Context, member, traceID string) (otrace.Document, error) {
	if member != "m1" {
		return otrace.Document{}, fmt.Errorf("member %s down", member)
	}
	raw, err := strconv.ParseUint(traceID, 16, 64)
	if err != nil {
		return otrace.Document{}, err
	}
	id := otrace.TraceID(raw)
	// m1 records one remote-side span under the propagated trace, as a
	// backend's AccessLog would.
	sp := f.m1.Begin("http", otrace.Ctx{Trace: id})
	sp.SetStr("path", "/v1/jobs")
	f.m1.End(&sp)
	doc := otrace.NewDocument(id, f.m1.TraceSpans(id))
	return doc, nil
}

func (f *fakeFleet) FleetMetrics(ctx context.Context, member string) ([]byte, error) {
	if member != "m1" {
		return nil, fmt.Errorf("member %s down", member)
	}
	return []byte("# HELP wsrsd_sims_total sims\n# TYPE wsrsd_sims_total counter\nwsrsd_sims_total 7\n" +
		"# HELP wsrsd_cache_hits_total hits\n# TYPE wsrsd_cache_hits_total counter\nwsrsd_cache_hits_total 3\n"), nil
}

func (f *fakeFleet) FleetHealth() []federate.MemberHealth {
	return []federate.MemberHealth{
		{Member: "m1", Healthy: true, Breaker: "closed"},
		{Member: "m2", Healthy: false, Breaker: "open"},
	}
}

// TestStitchedTraceEndpoint checks that a server with a FleetObserver
// serves GET /v1/jobs/{id}/trace as the stitched multi-process
// document: the local track first, the reachable member's spans under
// the same trace ID, and the dead member as a stale track — never an
// error.
func TestStitchedTraceEndpoint(t *testing.T) {
	fl := &fakeFleet{m1: otrace.NewRecorder(256)}
	srv, client, ts := testServer(t, Options{
		Workers: 1, Process: "coordinator", Fleet: fl,
		FleetScrapeTimeout: time.Second,
	})
	defer srv.Drain(context.Background())

	final := submitWait(t, client, &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfRR256)}},
		Warmup: testWarmup, Measure: testMeasure, Label: "stitched",
	})
	if final.State != StateDone {
		t.Fatalf("job state %s (%s)", final.State, final.Error)
	}

	var doc federate.Doc
	if err := client.getJSON(context.Background(), "/v1/jobs/"+final.ID+"/trace", &doc); err != nil {
		t.Fatalf("trace: %v", err)
	}
	if !doc.Fleet || doc.JobID != final.ID || doc.TraceID != final.TraceID {
		t.Fatalf("doc identity = fleet=%v %s/%s, want fleet job %s trace %s",
			doc.Fleet, doc.JobID, doc.TraceID, final.ID, final.TraceID)
	}
	if len(doc.Processes) != 3 {
		t.Fatalf("doc has %d process tracks, want 3 (coordinator, m1, m2-stale): %+v",
			len(doc.Processes), doc.Processes)
	}
	if doc.Processes[0].Process != "coordinator" || len(doc.Processes[0].Spans) == 0 {
		t.Fatalf("track 0 = %q with %d spans, want the coordinator's own spans",
			doc.Processes[0].Process, len(doc.Processes[0].Spans))
	}
	byName := map[string]federate.ProcessDoc{}
	for _, p := range doc.Processes {
		byName[p.Process] = p
	}
	m1 := byName["m1"]
	if m1.Stale || len(m1.Spans) == 0 {
		t.Fatalf("m1 track stale=%v spans=%d, want live with spans", m1.Stale, len(m1.Spans))
	}
	for _, sp := range m1.Spans {
		if sp.TraceID != final.TraceID {
			t.Fatalf("m1 span %q carries trace %s, want %s", sp.Name, sp.TraceID, final.TraceID)
		}
	}
	m2 := byName["m2"]
	if !m2.Stale || !strings.Contains(m2.Error, "down") {
		t.Fatalf("m2 track = %+v, want stale with the fetch error", m2)
	}

	// The chrome rendering puts each process on its own pid and labels
	// the dead member's track stale.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + final.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("chrome stitched trace not valid JSON: %v", err)
	}
	pids, staleTrack := map[int]bool{}, false
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.Pid] = true
		}
		if ev.Ph == "M" && ev.Name == "process_name" {
			if name, _ := ev.Args["name"].(string); strings.Contains(name, "(stale)") {
				staleTrack = true
			}
		}
	}
	if len(pids) < 2 {
		t.Fatalf("chrome stitched trace has slices on pids %v, want >= 2 process tracks", pids)
	}
	if !staleTrack {
		t.Fatal("chrome stitched trace does not label the dead member's track (stale)")
	}
}

// TestFleetMetricsEndpoint checks the federated exposition: member
// labels on relayed samples, the stale marker for the dead member, and
// the fleet rollup series — and that the body still parses as
// line-oriented Prometheus text.
func TestFleetMetricsEndpoint(t *testing.T) {
	fl := &fakeFleet{m1: otrace.NewRecorder(64)}
	srv, client, ts := testServer(t, Options{
		Workers: 1, Process: "coordinator", Fleet: fl,
		FleetScrapeTimeout: time.Second,
	})
	defer srv.Drain(context.Background())

	submitWait(t, client, &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfRR256)}},
		Warmup: testWarmup, Measure: testMeasure,
	})

	resp, err := http.Get(ts.URL + "/v1/fleet/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/fleet/metrics: HTTP %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`wsrsd_sims_total{member="coordinator"}`,
		`wsrsd_sims_total{member="m1"} 7`,
		`stale member "m2"`,
		`wsrsd_fleet_member_up{member="m1"} 1`,
		`wsrsd_fleet_member_up{member="m2"} 0`,
		`wsrsd_fleet_member_breaker{member="m2"} 2`,
		`wsrsd_fleet_rollup_sims_total`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("federated exposition missing %q\n%s", want, text)
		}
	}
}

// TestFleetStatusEndpoint checks the JSON summary: per-member rows
// with health/breaker/staleness and the fleet-wide counts.
func TestFleetStatusEndpoint(t *testing.T) {
	fl := &fakeFleet{m1: otrace.NewRecorder(64)}
	srv, client, _ := testServer(t, Options{
		Workers: 1, Process: "coordinator", Fleet: fl,
		FleetScrapeTimeout: time.Second,
	})
	defer srv.Drain(context.Background())

	var st federate.Status
	if err := client.getJSON(context.Background(), "/v1/fleet/status", &st); err != nil {
		t.Fatalf("fleet status: %v", err)
	}
	if st.Coordinator.Member != "coordinator" {
		t.Fatalf("status coordinator = %q", st.Coordinator.Member)
	}
	if st.MemberCount != 2 || st.HealthyCount != 1 || st.StaleCount != 1 {
		t.Fatalf("status counts = members %d healthy %d stale %d, want 2/1/1",
			st.MemberCount, st.HealthyCount, st.StaleCount)
	}
	rows := map[string]federate.MemberStatus{}
	for _, m := range st.Members {
		rows[m.Member] = m
	}
	if m1 := rows["m1"]; !m1.Healthy || m1.Stale || m1.Breaker != "closed" || m1.Sims != 7 {
		t.Fatalf("m1 row = %+v", m1)
	}
	if m2 := rows["m2"]; m2.Healthy || !m2.Stale || m2.Breaker != "open" || m2.Error == "" {
		t.Fatalf("m2 row = %+v", m2)
	}
}

// TestTraceByIDEndpoint checks the member-side stitching fetch: any
// process serves its own spans for a trace ID at /v1/traces/{trace},
// and rejects a malformed ID with the uniform envelope.
func TestTraceByIDEndpoint(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 1})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	final := submitWait(t, client, &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfRR256)}},
		Warmup: testWarmup, Measure: testMeasure,
	})
	doc, err := client.TraceByID(ctx, final.TraceID)
	if err != nil {
		t.Fatalf("TraceByID: %v", err)
	}
	if doc.TraceID != final.TraceID || len(doc.Spans) == 0 {
		t.Fatalf("trace doc = %s with %d spans, want %s with spans",
			doc.TraceID, len(doc.Spans), final.TraceID)
	}
	for _, sp := range doc.Spans {
		if sp.TraceID != final.TraceID {
			t.Fatalf("span %q carries trace %s", sp.Name, sp.TraceID)
		}
	}

	_, err = client.TraceByID(ctx, "not-hex")
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("malformed trace ID: err = %v, want 400 APIError", err)
	}
	if apiErr.Envelope == nil || apiErr.Envelope.Field != "trace" {
		t.Fatalf("malformed trace ID envelope = %+v", apiErr.Envelope)
	}
}

// TestErrorEnvelopeMember checks that every error body names the
// process that produced it, and that the client lifts the envelope
// into the APIError.
func TestErrorEnvelopeMember(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 1, Process: "member-a"})
	defer srv.Drain(context.Background())

	_, err := client.Get(context.Background(), "j-404404")
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != http.StatusNotFound {
		t.Fatalf("missing job: err = %v, want 404 APIError", err)
	}
	if apiErr.Envelope == nil {
		t.Fatalf("APIError carries no envelope: %v", apiErr)
	}
	if apiErr.Envelope.Member != "member-a" {
		t.Fatalf("envelope member = %q, want member-a", apiErr.Envelope.Member)
	}
	if !hexTraceID.MatchString(apiErr.Envelope.TraceID) {
		t.Fatalf("envelope trace_id = %q", apiErr.Envelope.TraceID)
	}
}

// TestSubmitPropagatesTrace drives the cross-process half of trace
// stitching through a real HTTP hop: a client whose context carries a
// trace (as a coordinator's does when it dispatches a cell) submits a
// job, and the server continues that trace instead of starting its
// own.
func TestSubmitPropagatesTrace(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 1})
	defer srv.Drain(context.Background())

	caller := otrace.NewRecorder(16)
	leg := caller.Begin("fleet.attempt", otrace.Ctx{})
	ctx := otrace.ContextWith(context.Background(), leg.Ctx())

	st, err := client.Submit(ctx, &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfRR256)}},
		Warmup: testWarmup, Measure: testMeasure,
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	caller.End(&leg)
	want := otrace.FormatTraceID(leg.Trace)
	if st.TraceID != want {
		t.Fatalf("job trace %s, want the propagated caller trace %s", st.TraceID, want)
	}
	if _, err := client.Wait(context.Background(), st.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The server's own spans for the job live under the caller's trace,
	// fetchable by ID — exactly what Stitch does from the coordinator.
	doc, err := client.TraceByID(context.Background(), want)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, sp := range doc.Spans {
		names[sp.Name] = true
	}
	for _, wantSpan := range []string{"http", "admission", "job", "simulate"} {
		if !names[wantSpan] {
			t.Errorf("propagated trace missing %q span (have %v)", wantSpan, names)
		}
	}
	_ = srv
}

// failingRunner rejects every cell with a relayed backend envelope —
// the coordinator-mode failure path.
type failingRunner struct{ err error }

func (r *failingRunner) RunCell(ctx context.Context, id cellcache.CellID) (wsrs.Result, time.Duration, error) {
	return wsrs.Result{}, 0, r.err
}

// TestBackendErrorRelaysEnvelope checks that a cell failing on a fleet
// backend surfaces the member's own envelope in the cell status, and
// that the failure snapshots the flight recorder under the classified
// reason.
func TestBackendErrorRelaysEnvelope(t *testing.T) {
	be := &BackendError{
		Member: "127.0.0.1:19001",
		Status: 400,
		Env: &ErrorEnvelope{
			Msg: "simulation check[watchdog]: no forward progress", TraceID: "00000000deadbeef",
		},
	}
	srv, client, _ := testServer(t, Options{Workers: 1, Runner: &failingRunner{err: be}})
	defer srv.Drain(context.Background())

	final := submitWait(t, client, &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfRR256)}},
		Warmup: testWarmup, Measure: testMeasure,
	})
	if final.State != StateFailed {
		t.Fatalf("job state %s, want failed", final.State)
	}
	c := final.Cells[0]
	if c.Backend == nil {
		t.Fatalf("failed cell carries no backend envelope: %+v", c)
	}
	if c.Backend.Member != "127.0.0.1:19001" || c.Backend.TraceID != "00000000deadbeef" {
		t.Fatalf("backend envelope = %+v, want the member's own identity", c.Backend)
	}
	if !strings.Contains(c.Backend.Msg, "watchdog") {
		t.Fatalf("backend envelope msg = %q", c.Backend.Msg)
	}

	// The flight recorder snapshotted the failure under the classified
	// reason, naming the failing cell's digest.
	snap := srv.FlightRecorder().Last()
	if snap == nil {
		t.Fatal("no flight-recorder snapshot after a failed cell")
	}
	if snap.Reason != "watchdog" {
		t.Fatalf("snapshot reason = %q, want watchdog", snap.Reason)
	}
	if snap.CellDigest != c.Digest {
		t.Fatalf("snapshot digest = %q, want the failing cell's %q", snap.CellDigest, c.Digest)
	}
}

// TestFlightRecorderEndpoint checks /debug/flightrecorder: after a
// job, the black box holds sim and phase events and serves them as
// JSON.
func TestFlightRecorderEndpoint(t *testing.T) {
	srv, client, ts := testServer(t, Options{Workers: 1, Process: "member-b"})
	defer srv.Drain(context.Background())

	submitWait(t, client, &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfRR256)}},
		Warmup: testWarmup, Measure: testMeasure,
	})

	resp, err := http.Get(ts.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Process string `json:"process"`
		Total   uint64 `json:"events_total"`
		Events  []struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
		} `json:"recent_events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("/debug/flightrecorder not valid JSON: %v", err)
	}
	if st.Process != "member-b" {
		t.Fatalf("flight recorder process = %q", st.Process)
	}
	if st.Total == 0 {
		t.Fatal("flight recorder recorded nothing during a job")
	}
	kinds := map[string]bool{}
	for _, ev := range st.Events {
		kinds[ev.Kind] = true
	}
	if !kinds["sim"] || !kinds["phase"] {
		t.Fatalf("flight recorder kinds = %v, want sim and phase events", kinds)
	}
}
