package probe

import (
	"strings"
	"testing"

	"wsrs/internal/isa"
)

func TestStallStackInvariant(t *testing.T) {
	s := StallStack{Width: 8}
	s.Record(8, 0, CauseMispredict) // full cycle; cause ignored
	s.Record(3, 5, CauseCacheMiss)
	s.Record(0, 8, CauseMispredict)
	if !s.Check() {
		t.Fatalf("invariant broken: committed %d + bubbles %d != %d slots",
			s.Committed, s.BubbleTotal(), s.TotalSlots())
	}
	if s.Cycles != 3 || s.Committed != 11 {
		t.Errorf("cycles=%d committed=%d, want 3/11", s.Cycles, s.Committed)
	}
	if s.Bubbles[CauseCacheMiss] != 5 || s.Bubbles[CauseMispredict] != 8 {
		t.Errorf("bubbles = %v", s.Bubbles)
	}
	if got := s.Share(CauseCacheMiss); got != 5.0/24.0 {
		t.Errorf("Share(cache) = %v, want %v", got, 5.0/24.0)
	}
}

func TestCauseNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for c := Cause(0); c < NumCauses; c++ {
		n := c.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Errorf("cause %d has bad or duplicate name %q", c, n)
		}
		seen[n] = true
	}
	if Cause(-1).String() != "unknown" || NumCauses.String() != "unknown" {
		t.Error("out-of-range causes must render as unknown")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(0.5) != 0 || h.Max() != 0 {
		t.Error("empty histogram summaries must be zero")
	}
	for _, v := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9} {
		h.Add(v)
	}
	if h.Mean() != 4.5 {
		t.Errorf("mean = %v, want 4.5", h.Mean())
	}
	if got := h.Percentile(0.5); got != 4 {
		t.Errorf("p50 = %d, want 4", got)
	}
	if got := h.Percentile(1.0); got != 9 {
		t.Errorf("p100 = %d, want 9", got)
	}
	if h.Max() != 9 {
		t.Errorf("max = %d, want 9", h.Max())
	}
	h.Add(-3) // clamped
	if h.Counts[0] != 2 {
		t.Error("negative samples must clamp to 0")
	}
}

func TestProbeResetAndEventCap(t *testing.T) {
	p := New(Options{Events: true, MaxEvents: 2, Stalls: true, Occupancy: true})
	p.Stall.Width = 8
	p.Stall.Record(2, 6, CauseExecLat)
	p.Disp.AddFreeList(3, 5)
	p.Occ.ROB.Add(17)
	p.Occ.SampleIQ(1, 4, 1)
	for i := 0; i < 3; i++ {
		r := p.NewRecord()
		r.Seq = uint64(i)
		p.Retire(r, int64(10+i))
	}
	if len(p.Events) != 2 || p.Dropped != 1 {
		t.Fatalf("events=%d dropped=%d, want 2/1", len(p.Events), p.Dropped)
	}
	if p.Disp.FreeListBySubset[3] != 5 {
		t.Errorf("per-subset free-list stalls = %v", p.Disp.FreeListBySubset)
	}
	p.Reset()
	if p.Stall.Cycles != 0 || p.Stall.Width != 8 {
		t.Error("reset must clear counts but keep the commit width")
	}
	if p.Disp.FreeList != 0 || len(p.Events) != 0 || p.Dropped != 0 {
		t.Error("reset must clear dispatch stalls and events")
	}
	if p.Occ.ROB.N != 0 || len(p.Occ.IQ) != 0 {
		t.Error("reset must clear occupancy histograms")
	}
}

func TestPipeviewAndJSONL(t *testing.T) {
	recs := []UopRecord{
		{Seq: 0, InstSeq: 0, PC: 0x40, Op: isa.OpADD, Class: isa.ClassALU,
			Cluster: 2, Subset: 2, Fetch: 1, Dispatch: 2, Issue: 4, Done: 5, Commit: 7},
		{Seq: 1, InstSeq: 1, PC: 0x44, Op: isa.OpLD, Class: isa.ClassLoad,
			Cluster: 0, Subset: 0, Fetch: 1, Dispatch: 2, Issue: 5, Done: 200, Commit: 201},
	}
	var pv strings.Builder
	if err := WritePipeview(&pv, recs); err != nil {
		t.Fatal(err)
	}
	out := pv.String()
	if !strings.Contains(out, "|FDDIWC.C|") && !strings.Contains(out, "|FDDIW.C|") {
		t.Errorf("unexpected timeline for the ALU op:\n%s", out)
	}
	if !strings.Contains(out, "~") {
		t.Errorf("long-lifetime record must be elided:\n%s", out)
	}
	var js strings.Builder
	if err := WriteJSONL(&js, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(js.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 JSONL lines, got %d", len(lines))
	}
	if !strings.Contains(lines[1], `"class":"load"`) || !strings.Contains(lines[1], `"commit":201`) {
		t.Errorf("JSONL line malformed: %s", lines[1])
	}
}

func TestTimelineGlyphOrder(t *testing.T) {
	r := &UopRecord{Fetch: 0, Dispatch: 1, Issue: 3, Done: 6, Commit: 8}
	if got := timeline(r); got != "FDDIEEW.C" {
		t.Errorf("timeline = %q, want FDDIEEW.C", got)
	}
	// Nop-like: completed at dispatch.
	r = &UopRecord{Fetch: 0, Dispatch: 1, Issue: 1, Done: 1, Commit: 2}
	if got := timeline(r); got != "FWC" {
		t.Errorf("nop timeline = %q, want FWC", got)
	}
}

func TestBulkRecordingMatchesRepeated(t *testing.T) {
	var one, bulk Histogram
	for i := 0; i < 5; i++ {
		one.Add(7)
	}
	bulk.AddN(7, 5)
	if one.N != bulk.N || one.Sum != bulk.Sum || len(one.Counts) != len(bulk.Counts) || one.Counts[7] != bulk.Counts[7] {
		t.Errorf("AddN(7, 5) = %+v, five Adds = %+v", bulk, one)
	}
	s1, s2 := StallStack{Width: 8}, StallStack{Width: 8}
	for i := 0; i < 3; i++ {
		s1.Record(0, 8, CauseCacheMiss)
	}
	s2.RecordIdle(CauseCacheMiss, 3)
	if s1 != s2 || !s2.Check() {
		t.Errorf("RecordIdle = %+v, three idle Records = %+v", s2, s1)
	}
}
