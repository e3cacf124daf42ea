package check

import (
	"errors"
	"math"
	"strings"
	"testing"

	"wsrs/internal/check/inject"
	"wsrs/internal/isa"
	"wsrs/internal/rename"
	"wsrs/internal/trace"
)

func TestViolationError(t *testing.T) {
	v := &Violation{Checker: "oracle", Cycle: 42, Summary: "stream diverged"}
	if got := v.Error(); got != "check[oracle] cycle 42: stream diverged" {
		t.Fatalf("Error() = %q", got)
	}
}

func TestAuditDue(t *testing.T) {
	c := New(Config{})
	if !c.AuditDue(DefaultAuditEvery) || !c.AuditDue(3*DefaultAuditEvery) {
		t.Fatal("default cadence did not fire on its multiples")
	}
	if c.AuditDue(DefaultAuditEvery + 1) {
		t.Fatal("default cadence fired off its multiples")
	}
	if New(Config{AuditEvery: -1}).AuditDue(DefaultAuditEvery) {
		t.Fatal("negative cadence should disable audits")
	}
	if !New(Config{AuditEvery: 256}).AuditDue(512) {
		t.Fatal("explicit cadence did not fire")
	}
}

func TestNextDue(t *testing.T) {
	c := New(Config{})
	for _, tc := range [][2]int64{{0, 1024}, {1023, 1024}, {1024, 2048}} {
		if got := c.NextDue(tc[0]); got != tc[1] {
			t.Errorf("default cadence: NextDue(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
	if got := New(Config{AuditEvery: -1}).NextDue(5); got != math.MaxInt64 {
		t.Errorf("nothing scheduled: NextDue = %d", got)
	}
	f := &inject.Fault{Kind: inject.KindLeak, Cycle: 5000}
	c = New(Config{AuditEvery: -1, Fault: f})
	if got := c.NextDue(100); got != 5000 {
		t.Errorf("armed fault: NextDue(100) = %d, want 5000", got)
	}
	// A fault that found no victim yet is retried every cycle.
	if got := c.NextDue(6000); got != 6001 {
		t.Errorf("pending fault: NextDue(6000) = %d, want 6001", got)
	}
	f.TryApply(6001, leakTarget{})
	if got := c.NextDue(6001); got != math.MaxInt64 {
		t.Errorf("applied fault still scheduled: NextDue = %d", got)
	}
}

// leakTarget accepts a free-list leak and refuses everything else.
type leakTarget struct{}

func (leakTarget) CorruptMap() (string, bool)    { return "", false }
func (leakTarget) LeakFree() (string, bool)      { return "leaked", true }
func (leakTarget) DupFree() (string, bool)       { return "", false }
func (leakTarget) DropWakeup() (string, bool)    { return "", false }
func (leakTarget) CorruptStream() (string, bool) { return "", false }

// ---- structural audits over a fake machine state ----

// mkCounts builds a healthy accounting snapshot: every register on the
// free side exactly once.
func mkCounts(numSubsets, perSub int) rename.AuditCounts {
	n := numSubsets * perSub
	ac := rename.AuditCounts{
		NumSubsets:  numSubsets,
		PerSubset:   perSub,
		Free:        make([]int, numSubsets),
		Reserved:    make([]int, numSubsets),
		Recycling:   make([]int, numSubsets),
		PendingFree: make([]int, numSubsets),
		Mapped:      make([]int, numSubsets),
		FreeSide:    make([]uint16, n),
		MapSide:     make([]uint16, n),
	}
	for p := range ac.FreeSide {
		ac.FreeSide[p] = 1
	}
	for s := range ac.Free {
		ac.Free[s] = perSub
	}
	return ac
}

type fakeState struct {
	subsets  int
	counts   [2]rename.AuditCounts
	inflight []int
	rob      []InFlight
}

func (s *fakeState) NumSubsets() int                          { return s.subsets }
func (s *fakeState) Counts(c isa.RegClass) rename.AuditCounts { return s.counts[c] }
func (s *fakeState) ClusterInflight() []int                   { return s.inflight }
func (s *fakeState) ScanROB(fn func(*InFlight)) {
	for i := range s.rob {
		fn(&s.rob[i])
	}
}

func newState() *fakeState {
	return &fakeState{
		subsets:  2,
		counts:   [2]rename.AuditCounts{mkCounts(2, 8), mkCounts(2, 8)},
		inflight: []int{0, 0},
	}
}

// entry builds a healthy in-flight ROB entry: no destination, no
// superseded mapping, issued and complete.
func entry(rob int, tid int, seq uint64, cluster int) InFlight {
	return InFlight{
		ROBIndex:    rob,
		Tid:         tid,
		Seq:         seq,
		Cluster:     cluster,
		Issued:      true,
		DoneAt:      10,
		PrevPhys:    -1,
		ProducerROB: int32(rob),
	}
}

// moveToMap moves register p of class cl from the free side to the map
// side, keeping conservation intact (as renaming it would).
func (s *fakeState) moveToMap(cl isa.RegClass, p int) {
	s.counts[cl].FreeSide[p] = 0
	s.counts[cl].MapSide[p] = 1
}

func audit(t *testing.T, st *fakeState) *Violation {
	t.Helper()
	err := New(Config{}).Audit(100, st)
	if err == nil {
		return nil
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("Audit returned %T, want *Violation", err)
	}
	if v.Cycle != 100 {
		t.Fatalf("violation cycle = %d, want 100", v.Cycle)
	}
	return v
}

func expectChecker(t *testing.T, v *Violation, checker, substr string) {
	t.Helper()
	if v == nil {
		t.Fatalf("audit passed, want a %s violation", checker)
	}
	if v.Checker != checker {
		t.Fatalf("checker = %q, want %q (summary: %s)", v.Checker, checker, v.Summary)
	}
	if !strings.Contains(v.Summary, substr) {
		t.Fatalf("summary %q does not contain %q", v.Summary, substr)
	}
}

func TestAuditHealthy(t *testing.T) {
	st := newState()
	st.rob = append(st.rob, entry(0, 0, 1, 0), entry(1, 0, 2, 1), entry(2, 1, 1, 0))
	st.inflight = []int{2, 1}
	if v := audit(t, st); v != nil {
		t.Fatalf("healthy state flagged: %v", v)
	}
}

func TestAuditConservationLost(t *testing.T) {
	st := newState()
	st.counts[isa.RegInt].FreeSide[3] = 0 // p3 vanishes
	v := audit(t, st)
	expectChecker(t, v, "conservation", "1 lost, 0 duplicated")
	if !strings.Contains(v.Summary, "p3") {
		t.Fatalf("summary %q does not name the lost register", v.Summary)
	}
	if !strings.Contains(v.Detail, "lost registers") {
		t.Fatalf("detail does not list the lost registers:\n%s", v.Detail)
	}
}

func TestAuditConservationDuplicate(t *testing.T) {
	st := newState()
	st.counts[isa.RegFP].MapSide[5] = 1 // fp p5 free AND mapped
	v := audit(t, st)
	expectChecker(t, v, "conservation", "0 lost, 1 duplicated")
	if !strings.Contains(v.Detail, "duplicated registers") {
		t.Fatalf("detail does not list the duplicated registers:\n%s", v.Detail)
	}
}

func TestAuditConservationCountsRobHeld(t *testing.T) {
	// A superseded previous mapping held by an in-flight µop is the
	// register's one legal place: not lost, not duplicated.
	st := newState()
	st.counts[isa.RegInt].FreeSide[4] = 0
	e := entry(0, 0, 1, 0)
	e.PrevPhys = 4 // DstClass zero value is RegInt
	st.rob = append(st.rob, e)
	st.inflight = []int{1, 0}
	if v := audit(t, st); v != nil {
		t.Fatalf("rob-held previous mapping flagged: %v", v)
	}
}

func TestAuditRobOrder(t *testing.T) {
	st := newState()
	st.rob = append(st.rob, entry(0, 0, 5, 0), entry(1, 0, 3, 0)) // seq goes backwards
	st.inflight = []int{2, 0}
	v := audit(t, st)
	expectChecker(t, v, "rob-order", "commit order broken")
}

func TestAuditClusterCounterMismatch(t *testing.T) {
	st := newState()
	st.rob = append(st.rob, entry(0, 0, 1, 0))
	st.inflight = []int{0, 0} // counter says nothing in flight
	v := audit(t, st)
	expectChecker(t, v, "rob-order", "in-flight counter")
}

func TestAuditWakeupLostBroadcast(t *testing.T) {
	st := newState()
	e := entry(0, 0, 1, 0)
	e.HasDst, e.DstClass, e.DstPhys = true, isa.RegInt, 6
	e.DoneAt, e.DstReadyAt = 10, 12 // wakeup entry disagrees with completion
	st.moveToMap(isa.RegInt, 6)
	st.rob = append(st.rob, e)
	st.inflight = []int{1, 0}
	v := audit(t, st)
	expectChecker(t, v, "wakeup", "result broadcast lost")
}

func TestAuditWakeupReadyBeforeIssue(t *testing.T) {
	st := newState()
	e := entry(0, 0, 1, 0)
	e.Issued = false
	e.HasDst, e.DstClass, e.DstPhys = true, isa.RegInt, 6
	e.DstWaiting = false // marked ready though the producer never issued
	st.moveToMap(isa.RegInt, 6)
	st.rob = append(st.rob, e)
	st.inflight = []int{1, 0}
	v := audit(t, st)
	expectChecker(t, v, "wakeup", "before its producer")
}

func TestAuditWakeupWrongProducer(t *testing.T) {
	st := newState()
	e := entry(3, 0, 1, 0)
	e.HasDst, e.DstClass, e.DstPhys = true, isa.RegInt, 6
	e.DstReadyAt = e.DoneAt
	e.ProducerROB = 7 // entry names someone else
	st.moveToMap(isa.RegInt, 6)
	st.rob = append(st.rob, e)
	st.inflight = []int{1, 0}
	v := audit(t, st)
	expectChecker(t, v, "wakeup", "names rob[7]")
}

func TestAuditWakeupDuplicateDestination(t *testing.T) {
	st := newState()
	for i := 0; i < 2; i++ {
		e := entry(i, 0, uint64(i+1), 0)
		e.HasDst, e.DstClass, e.DstPhys = true, isa.RegInt, 6
		e.DstReadyAt = e.DoneAt
		st.rob = append(st.rob, e)
	}
	st.moveToMap(isa.RegInt, 6)
	st.inflight = []int{2, 0}
	v := audit(t, st)
	expectChecker(t, v, "wakeup", "destination of both")
}

func TestAuditOrphanedOperand(t *testing.T) {
	st := newState()
	e := entry(0, 0, 1, 0)
	e.Issued = false
	e.NSrc = 1
	e.SrcClass[0], e.SrcPhys[0] = isa.RegInt, 9
	e.SrcWaiting[0] = true // waits on p9, which nothing in flight produces
	st.rob = append(st.rob, e)
	st.inflight = []int{1, 0}
	v := audit(t, st)
	expectChecker(t, v, "wakeup", "orphaned operand")
	if !strings.Contains(v.Summary, "p9") {
		t.Fatalf("summary %q does not name the orphan register", v.Summary)
	}
}

func TestAuditWaitingOperandWithProducerPasses(t *testing.T) {
	st := newState()
	prod := entry(0, 0, 1, 0)
	prod.Issued = false
	prod.HasDst, prod.DstClass, prod.DstPhys = true, isa.RegInt, 9
	prod.DstWaiting = true
	st.moveToMap(isa.RegInt, 9)
	cons := entry(1, 0, 2, 1)
	cons.Issued = false
	cons.NSrc = 1
	cons.SrcClass[0], cons.SrcPhys[0] = isa.RegInt, 9
	cons.SrcWaiting[0] = true
	st.rob = append(st.rob, prod, cons)
	st.inflight = []int{1, 1}
	if v := audit(t, st); v != nil {
		t.Fatalf("legal producer/consumer pair flagged: %v", v)
	}
}

func TestAuditConservationReportedFirst(t *testing.T) {
	// With both a free-list hole and a wakeup anomaly, the audit
	// blames conservation: the corrupted free list is the root cause.
	st := newState()
	st.counts[isa.RegInt].FreeSide[3] = 0
	e := entry(0, 0, 1, 0)
	e.HasDst, e.DstClass, e.DstPhys = true, isa.RegInt, 6
	e.DoneAt, e.DstReadyAt = 10, 12
	st.moveToMap(isa.RegInt, 6)
	st.rob = append(st.rob, e)
	st.inflight = []int{1, 0}
	v := audit(t, st)
	expectChecker(t, v, "conservation", "conservation broken")
}

// ---- per-commit legality checks ----

func TestOnCommitWriteSpecialization(t *testing.T) {
	c := New(Config{})
	ci := &Commit{
		Cycle: 7, Cluster: 1, NumSubsets: 4,
		Uop:       &trace.MicroOp{Seq: 9, Op: isa.OpADD, HasDst: true},
		DstSubset: 2, // executed on cluster 1 but wrote subset 2
	}
	err := c.OnCommit(ci)
	var v *Violation
	if !errors.As(err, &v) || v.Checker != "ws-legal" {
		t.Fatalf("OnCommit = %v, want a ws-legal violation", err)
	}
	// A single-subset machine has no write specialization to break.
	ci.NumSubsets = 1
	if err := c.OnCommit(ci); err != nil {
		t.Fatalf("single-subset commit flagged: %v", err)
	}
}

func TestOnCommitReadSpecialization(t *testing.T) {
	c := New(Config{})
	uop := &trace.MicroOp{Seq: 9, Op: isa.OpADD, NSrc: 2, HasDst: true}
	ci := &Commit{
		Cycle: 7, Cluster: 1, NumSubsets: 4, WSRS: true,
		Uop:        uop,
		DstSubset:  1,            // write specialization holds
		SrcSubsets: [2]int{0, 0}, // but subset 0's right operand can't reach cluster 1
	}
	err := c.OnCommit(ci)
	var v *Violation
	if !errors.As(err, &v) || v.Checker != "rs-legal" {
		t.Fatalf("OnCommit = %v, want an rs-legal violation", err)
	}
	// The same operands on cluster 0 are legal.
	ci.Cluster, ci.DstSubset = 0, 0
	if err := c.OnCommit(ci); err != nil {
		t.Fatalf("legal WSRS commit flagged: %v", err)
	}
	if c.Stats().CommitsChecked != 2 {
		t.Fatalf("CommitsChecked = %d, want 2", c.Stats().CommitsChecked)
	}
}

// ---- co-simulation oracle ----

// sliceRef replays a fixed micro-op slice as a reference stream.
type sliceRef struct {
	ops []trace.MicroOp
	i   int
	err error
}

func (r *sliceRef) Next() (trace.MicroOp, bool) {
	if r.i >= len(r.ops) {
		return trace.MicroOp{}, false
	}
	m := r.ops[r.i]
	r.i++
	return m, true
}

func (r *sliceRef) Err() error { return r.err }

func commitOf(m trace.MicroOp, tid int) *Commit {
	u := m
	return &Commit{Cycle: 50, Tid: tid, NumSubsets: 1, Uop: &u}
}

func TestOracleMatch(t *testing.T) {
	ops := []trace.MicroOp{
		{Seq: 0, Op: isa.OpADD, NSrc: 2, HasDst: true},
		{Seq: 1, Op: isa.OpLD, NSrc: 1, HasDst: true, Addr: 0x100},
	}
	c := New(Config{Refs: []RefSource{&sliceRef{ops: ops}}})
	for _, m := range ops {
		if err := c.OnCommit(commitOf(m, 0)); err != nil {
			t.Fatalf("matching commit flagged: %v", err)
		}
	}
}

func TestOracleMismatch(t *testing.T) {
	ref := []trace.MicroOp{{Seq: 0, Op: isa.OpADD, PC: 0x40}}
	c := New(Config{Refs: []RefSource{&sliceRef{ops: ref}}})
	got := trace.MicroOp{Seq: 0, Op: isa.OpSUB, PC: 0x40} // wrong op
	err := c.OnCommit(commitOf(got, 0))
	var v *Violation
	if !errors.As(err, &v) || v.Checker != "oracle" {
		t.Fatalf("OnCommit = %v, want an oracle violation", err)
	}
	if !strings.Contains(v.Detail, "Op") || !strings.Contains(v.Detail, "got") {
		t.Fatalf("detail is not a field diff:\n%s", v.Detail)
	}
}

func TestOracleOverrun(t *testing.T) {
	c := New(Config{Refs: []RefSource{&sliceRef{}}})
	err := c.OnCommit(commitOf(trace.MicroOp{Seq: 3, Op: isa.OpADD}, 0))
	var v *Violation
	if !errors.As(err, &v) || v.Checker != "oracle" {
		t.Fatalf("OnCommit = %v, want an oracle violation", err)
	}
	if !strings.Contains(v.Summary, "past the end") {
		t.Fatalf("summary %q does not report the overrun", v.Summary)
	}
}

func TestOracleReferenceError(t *testing.T) {
	c := New(Config{Refs: []RefSource{&sliceRef{err: errors.New("boom")}}})
	err := c.OnCommit(commitOf(trace.MicroOp{Seq: 3, Op: isa.OpADD}, 0))
	var v *Violation
	if !errors.As(err, &v) || !strings.Contains(v.Summary, "reference simulator failed") {
		t.Fatalf("OnCommit = %v, want a reference-failure violation", err)
	}
}

func TestOracleSMTAddressOffset(t *testing.T) {
	// Context 1's memory accesses run offset into a private region;
	// the oracle re-applies the offset before diffing.
	ref := []trace.MicroOp{{Seq: 0, Op: isa.OpLD, NSrc: 1, HasDst: true, Addr: 0x100}}
	c := New(Config{Refs: []RefSource{nil, &sliceRef{ops: ref}}})
	got := ref[0]
	got.Addr = 0x100 + 1<<40
	if err := c.OnCommit(commitOf(got, 1)); err != nil {
		t.Fatalf("offset commit flagged: %v", err)
	}
	// Context 0 has a nil reference: its commits are not checked.
	if err := c.OnCommit(commitOf(trace.MicroOp{Seq: 77}, 0)); err != nil {
		t.Fatalf("nil-reference context flagged: %v", err)
	}
}

func TestNoRefsDisablesOracle(t *testing.T) {
	c := New(Config{Refs: []RefSource{nil, nil}})
	if err := c.OnCommit(commitOf(trace.MicroOp{Seq: 1}, 0)); err != nil {
		t.Fatalf("oracle-less commit flagged: %v", err)
	}
}
