package pipeline

import (
	"strings"
	"testing"
	"testing/quick"

	"wsrs/internal/alloc"
	"wsrs/internal/cluster"
	"wsrs/internal/isa"
	"wsrs/internal/rename"
	"wsrs/internal/trace"
)

// TestUopConservationProperty: every micro-op fed to the pipeline is
// committed exactly once, for arbitrary synthetic mixes and both
// machine styles.
func TestUopConservationProperty(t *testing.T) {
	f := func(seed int64, loadFrac, branchFrac uint8) bool {
		cfg := trace.DefaultSynthConfig()
		cfg.Seed = seed
		cfg.FracLoad = float64(loadFrac%50) / 100
		cfg.FracBranch = float64(branchFrac%30) / 100
		cfg.FracFP = 0.1
		gen := trace.NewSynth(cfg)
		ops := make([]trace.MicroOp, 3000)
		for i := range ops {
			ops[i], _ = gen.Next()
		}
		for _, mk := range []func() (Config, alloc.Policy){
			func() (Config, alloc.Policy) { return conv(), alloc.NewRoundRobin(4) },
			func() (Config, alloc.Policy) { return wsrs512(), alloc.NewRC(seed) },
		} {
			c, p := mk()
			res, err := Run(c, p, trace.NewSliceReader(ops), RunOpts{})
			if err != nil {
				t.Logf("run error: %v", err)
				return false
			}
			if res.Uops != uint64(len(ops)) {
				t.Logf("committed %d of %d", res.Uops, len(ops))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestMemoryOrderSerializesAddresses: a younger load cannot issue
// before an older store whose operands are late ("load/store
// addresses were computed in order", §5.2).
func TestMemoryOrderSerializesAddresses(t *testing.T) {
	// op0: slow divide producing r1 (15 cycles)
	// op1: store [A] with data r1 — waits for the divide
	// op2: load [B] (different address) — must NOT issue before op1.
	ops := []trace.MicroOp{
		{
			Seq: 0, InstSeq: 0, Op: isa.OpDIV, Class: isa.ClassDiv,
			NSrc: 1, Src: [2]isa.LogicalReg{{Class: isa.RegInt, Index: 2}},
			Dst: isa.LogicalReg{Class: isa.RegInt, Index: 1}, HasDst: true,
			LastOfInst: true,
		},
		{
			Seq: 1, InstSeq: 1, Op: isa.OpST, Class: isa.ClassStore,
			NSrc: 2, Src: [2]isa.LogicalReg{{Class: isa.RegInt, Index: 3}, {Class: isa.RegInt, Index: 1}},
			Addr: 0x1000, MemSize: 8, LastOfInst: true,
		},
		{
			Seq: 2, InstSeq: 2, Op: isa.OpLD, Class: isa.ClassLoad,
			NSrc: 1, Src: [2]isa.LogicalReg{{Class: isa.RegInt, Index: 3}},
			Dst: isa.LogicalReg{Class: isa.RegInt, Index: 4}, HasDst: true,
			Addr: 0x8000, MemSize: 8, LastOfInst: true,
		},
	}
	cfg := conv()
	res := mustRun(t, cfg, alloc.NewRoundRobin(4), ops)
	// The load is gated by the store's address computation, which
	// waits ~15 cycles on the divide; total must exceed the divide
	// latency plus the memory access.
	if res.Cycles < 15 {
		t.Errorf("cycles = %d; in-order address computation not enforced", res.Cycles)
	}
}

// gateCheckReader feeds a trace to the engine and, each time dispatch
// pulls a µop, checks the memory-order gate invariant: every memory
// µop in a scan list is its context's next to issue, and every parked
// one is woken, younger than that and in its own slot.
type gateCheckReader struct {
	trace.Reader
	e                  *engine
	scanned, parked    int
	misplaced, badSlot int
}

func (r *gateCheckReader) Next() (trace.MicroOp, bool) {
	e := r.e
	for c := range e.iq {
		for _, idx := range e.iq[c] {
			if s := &e.robSched[idx]; s.memSeq >= 0 {
				r.scanned++
				if s.memSeq != e.th[s.tid].nextMemIssue {
					r.misplaced++
				}
			}
		}
	}
	n := len(e.rob)
	for i, idx := range e.memPark {
		if idx < 0 {
			continue
		}
		r.parked++
		s := &e.robSched[idx]
		tid := int(s.tid)
		if s.wait != 0 || s.memSeq <= e.th[tid].nextMemIssue || tid*n+int(s.memSeq%int64(n)) != i {
			r.badSlot++
		}
	}
	return r.Reader.Next()
}

// TestMemoryOrderGateInvariant runs a load/store-heavy trace and
// checks the gate invariant at every dispatch.
func TestMemoryOrderGateInvariant(t *testing.T) {
	cfg := trace.DefaultSynthConfig()
	cfg.Seed = 3
	cfg.FracLoad, cfg.FracStore = 0.3, 0.15
	gen := trace.NewSynth(cfg)
	ops := make([]trace.MicroOp, 20000)
	for i := range ops {
		ops[i], _ = gen.Next()
	}
	e := new(engine)
	r := &gateCheckReader{Reader: trace.NewSliceReader(ops), e: e}
	mc := wsrs512()
	mc.Threads, mc.Rename.Threads = 1, 1
	if err := e.Reset(mc, alloc.NewRC(1), []trace.Reader{r}, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	res, err := e.run(RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Uops != uint64(len(ops)) {
		t.Fatalf("committed %d of %d µops", res.Uops, len(ops))
	}
	if r.scanned == 0 || r.parked == 0 {
		t.Fatalf("gate never exercised: %d scanned, %d parked memory µops seen", r.scanned, r.parked)
	}
	if r.misplaced > 0 || r.badSlot > 0 {
		t.Errorf("%d scanned memory µops out of order, %d parked entries misfiled", r.misplaced, r.badSlot)
	}
}

// TestWritebackPortLimit: more than 3 simultaneous results per
// cluster get staggered by the subset write ports.
func TestWritebackPortLimit(t *testing.T) {
	// 8 independent 1-cycle ALU ops, all on cluster 0 of a
	// single-cluster machine with issue width 8 and 2 write ports:
	// completions must stagger.
	var ops []trace.MicroOp
	for i := 0; i < 64; i++ {
		ops = append(ops, aluOp(uint64(i), 1+i%60))
	}
	cfg := conv()
	cfg.NumClusters = 1
	cfg.Cluster.IssueWidth = 8
	cfg.Cluster.NumALU = 8
	cfg.Cluster.WritePorts = 2
	two := mustRun(t, cfg, alloc.NewRoundRobin(1), ops)
	cfg.Cluster.WritePorts = 8
	eight := mustRun(t, cfg, alloc.NewRoundRobin(1), ops)
	if two.Cycles <= eight.Cycles {
		t.Errorf("2 write ports (%d cycles) must be slower than 8 (%d cycles)",
			two.Cycles, eight.Cycles)
	}
}

// TestHeterogeneousPoolsEndToEnd drives the Figure 2b organization
// through the pipeline with a real kernel-like mix.
func TestHeterogeneousPoolsEndToEnd(t *testing.T) {
	scfg := trace.DefaultSynthConfig()
	scfg.FracFP = 0.15
	gen := trace.NewSynth(scfg)
	ops := make([]trace.MicroOp, 20000)
	for i := range ops {
		ops[i], _ = gen.Next()
	}
	cfg := conv()
	cfg.Rename.NumSubsets = 4
	cfg.Rename.IntRegs, cfg.Rename.FPRegs = 512, 512
	cfg.ClusterConfigs = []cluster.Config{
		{IssueWidth: 3, NumLSU: 3, IQSize: 56, MaxInflight: 56, WritePorts: 3},
		{IssueWidth: 4, NumALU: 4, IQSize: 56, MaxInflight: 56, WritePorts: 3},
		{IssueWidth: 2, NumALU: 2, NumFPU: 2, IQSize: 56, MaxInflight: 56, WritePorts: 3},
		{IssueWidth: 2, NumALU: 2, IQSize: 56, MaxInflight: 56, WritePorts: 2},
	}
	res, err := Run(cfg, alloc.NewClassPools(), trace.NewSliceReader(ops), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Uops != uint64(len(ops)) {
		t.Fatalf("committed %d of %d", res.Uops, len(ops))
	}
	// Every pool with work must have received only its classes: the
	// branch pool load should be nonzero (branches present).
	if res.ClusterLoads[3] == 0 {
		t.Error("branch pool idle despite branches in the mix")
	}
}

// TestMisroutedClassFails: sending a class to a pool that cannot
// execute it must abort with a clear error instead of livelocking.
func TestMisroutedClassFails(t *testing.T) {
	cfg := conv()
	cfg.ClusterConfigs = []cluster.Config{
		{IssueWidth: 2, NumLSU: 2, IQSize: 8, MaxInflight: 16, WritePorts: 2},
		{IssueWidth: 2, NumALU: 2, IQSize: 8, MaxInflight: 16, WritePorts: 2},
		{IssueWidth: 2, NumALU: 2, NumFPU: 2, IQSize: 8, MaxInflight: 16, WritePorts: 2},
		{IssueWidth: 2, NumALU: 2, IQSize: 8, MaxInflight: 16, WritePorts: 2},
	}
	ops := []trace.MicroOp{aluOp(0, 1)}
	// pinPolicy sends the ALU op to pool 0 (load/store only).
	_, err := Run(cfg, pinPolicy{}, trace.NewSliceReader(ops), RunOpts{})
	if err == nil || !strings.Contains(err.Error(), "cannot execute") {
		t.Fatalf("expected a misrouting error, got %v", err)
	}
}

// TestValidateHeterogeneous: configurations that cannot execute some
// class anywhere are rejected up front.
func TestValidateHeterogeneous(t *testing.T) {
	cfg := conv()
	cfg.ClusterConfigs = []cluster.Config{ // no FPU anywhere
		{IssueWidth: 2, NumALU: 2, NumLSU: 1, IQSize: 8, MaxInflight: 16, WritePorts: 2},
		{IssueWidth: 2, NumALU: 2, NumLSU: 1, IQSize: 8, MaxInflight: 16, WritePorts: 2},
		{IssueWidth: 2, NumALU: 2, NumLSU: 1, IQSize: 8, MaxInflight: 16, WritePorts: 2},
		{IssueWidth: 2, NumALU: 2, NumLSU: 1, IQSize: 8, MaxInflight: 16, WritePorts: 2},
	}
	if err := cfg.Validate(); err == nil {
		t.Error("config without FPUs must be invalid")
	}
	cfg = conv()
	cfg.ClusterConfigs = make([]cluster.Config, 2) // wrong count
	if err := cfg.Validate(); err == nil {
		t.Error("mismatched cluster config count must be invalid")
	}
}

// TestDivSerializationThroughput: non-pipelined divides throttle a
// divide-heavy stream to ~1 per 15 cycles per cluster.
func TestDivSerializationThroughput(t *testing.T) {
	var ops []trace.MicroOp
	for i := 0; i < 200; i++ {
		m := aluOp(uint64(i), 1+i%60)
		m.Op, m.Class = isa.OpDIV, isa.ClassDiv
		ops = append(ops, m)
	}
	cfg := conv()
	cfg.NumClusters = 1
	res := mustRun(t, cfg, alloc.NewRoundRobin(1), ops)
	// 200 divides x 15 cycles, minus pipeline overlap at the edges.
	if res.Cycles < 15*199 {
		t.Errorf("cycles = %d, want >= %d (non-pipelined divide)", res.Cycles, 15*199)
	}
}

// TestFPDivBlocksFPipe: fp divides block the cluster FPU; interleaved
// fp adds must wait.
func TestFPDivBlocksFPipe(t *testing.T) {
	var ops []trace.MicroOp
	for i := 0; i < 100; i++ {
		m := trace.MicroOp{
			Seq: uint64(2 * i), InstSeq: uint64(2 * i), PC: uint64(i) * 8,
			Op: isa.OpFDIV, Class: isa.ClassFPDiv,
			Dst: isa.LogicalReg{Class: isa.RegFP, Index: uint8(1 + i%20)}, HasDst: true,
			LastOfInst: true,
		}
		a := trace.MicroOp{
			Seq: uint64(2*i + 1), InstSeq: uint64(2*i + 1), PC: uint64(i)*8 + 4,
			Op: isa.OpFADD, Class: isa.ClassFP,
			Dst: isa.LogicalReg{Class: isa.RegFP, Index: uint8(1 + i%20)}, HasDst: true,
			Commutative: true, HWCommutable: true,
			LastOfInst: true,
		}
		ops = append(ops, m, a)
	}
	cfg := conv()
	cfg.NumClusters = 1
	res := mustRun(t, cfg, alloc.NewRoundRobin(1), ops)
	if res.Cycles < 15*99 {
		t.Errorf("cycles = %d; fp divide must block the FPU", res.Cycles)
	}
}

// TestCommitWidthBound: IPC can never exceed the commit width.
func TestCommitWidthBound(t *testing.T) {
	var ops []trace.MicroOp
	for i := 0; i < 5000; i++ {
		ops = append(ops, aluOp(uint64(i), 1+i%60))
	}
	cfg := conv()
	cfg.CommitWidth = 4
	res := mustRun(t, cfg, alloc.NewRoundRobin(4), ops)
	if res.IPC > 4.01 {
		t.Errorf("IPC %.2f exceeds commit width 4", res.IPC)
	}
}

// TestStallBreakdownReported: the dispatch stall counters must sum to
// something plausible on a constrained machine.
func TestStallBreakdownReported(t *testing.T) {
	gen := trace.NewSynth(trace.DefaultSynthConfig())
	ops := make([]trace.MicroOp, 20000)
	for i := range ops {
		ops[i], _ = gen.Next()
	}
	cfg := conv()
	cfg.PerfectBP = false
	cfg.Rename.IntRegs = 96
	cfg.Rename.FPRegs = 96
	res := mustRun(t, cfg, alloc.NewRoundRobin(4), ops)
	if res.StallRename == 0 {
		t.Error("tiny register file must report rename stalls")
	}
	if res.StallRedirect == 0 {
		t.Error("real predictor must report redirect stalls")
	}
}

// TestDeadlockAvoidanceBySteering: workaround (a) of §2.3 — with
// allocation-side avoidance the pinned-policy deadlock scenario never
// deadlocks and needs no move injections.
func TestDeadlockAvoidanceBySteering(t *testing.T) {
	cfg := conv()
	cfg.Rename = rename.Config{
		NumSubsets: 4, IntRegs: 96, FPRegs: 128, // 24-register subsets
		Impl: rename.ImplExactCount,
	}
	cfg.DeadlockAvoidAlloc = true
	var ops []trace.MicroOp
	for i := 0; i < 2000; i++ {
		ops = append(ops, aluOp(uint64(i), 1+i%60))
	}
	res, err := Run(cfg, pinPolicy{}, trace.NewSliceReader(ops), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 2000 {
		t.Fatalf("committed %d", res.Insts)
	}
	if res.Resteers == 0 {
		t.Error("pinned allocation with tiny subsets must trigger re-steers")
	}
	if res.InjectedMoves != 0 {
		t.Error("workaround (a) should make move injection unnecessary here")
	}
}

// TestSteeringRespectsWSRS: on a WSRS machine, re-steered placements
// still satisfy read specialization (the engine panics otherwise via
// WSRSValid; this test drives enough pressure to exercise the path).
func TestSteeringRespectsWSRS(t *testing.T) {
	cfg := wsrs512()
	cfg.Rename.IntRegs, cfg.Rename.FPRegs = 352, 352 // 88 per subset
	cfg.DeadlockAvoidAlloc = true
	gen := trace.NewSynth(trace.DefaultSynthConfig())
	ops := make([]trace.MicroOp, 30000)
	for i := range ops {
		ops[i], _ = gen.Next()
	}
	res, err := Run(cfg, alloc.NewRC(3), trace.NewSliceReader(ops), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Uops != uint64(len(ops)) {
		t.Fatalf("committed %d of %d", res.Uops, len(ops))
	}
}

// TestSharedDividers: §4.1's shared divider halves divide throughput
// across a cluster pair but leaves divide-free code untouched.
func TestSharedDividers(t *testing.T) {
	var divs []trace.MicroOp
	for i := 0; i < 200; i++ {
		m := aluOp(uint64(i), 1+i%60)
		m.Op, m.Class = isa.OpDIV, isa.ClassDiv
		divs = append(divs, m)
	}
	cfg := conv()
	private := mustRun(t, cfg, alloc.NewRoundRobin(4), divs)
	cfg.SharedDividers = true
	shared := mustRun(t, cfg, alloc.NewRoundRobin(4), divs)
	if shared.Cycles <= private.Cycles {
		t.Errorf("shared dividers (%d cycles) must be slower than private (%d)",
			shared.Cycles, private.Cycles)
	}
	// Roughly half the divide bandwidth: two pair-dividers vs four.
	if shared.Cycles < private.Cycles*3/2 {
		t.Errorf("shared dividers should cost ~2x on pure divides: %d vs %d",
			shared.Cycles, private.Cycles)
	}
	// ALU-only work is unaffected.
	var alus []trace.MicroOp
	for i := 0; i < 2000; i++ {
		alus = append(alus, aluOp(uint64(i), 1+i%60))
	}
	a := mustRun(t, conv(), alloc.NewRoundRobin(4), alus)
	cfg2 := conv()
	cfg2.SharedDividers = true
	b := mustRun(t, cfg2, alloc.NewRoundRobin(4), alus)
	if a.Cycles != b.Cycles {
		t.Errorf("divide-free code must be unaffected: %d vs %d", a.Cycles, b.Cycles)
	}
}

// TestBusyDividerIsAnEvent: a divide that is ready but waits for the
// non-pipelined divider must issue the cycle the divider frees up,
// even while an older cache miss keeps the rest of the machine idle —
// the next-event skip may not jump past it to the miss's return.
func TestBusyDividerIsAnEvent(t *testing.T) {
	load := trace.MicroOp{
		Seq: 0, InstSeq: 0, Op: isa.OpLD, Class: isa.ClassLoad,
		NSrc: 1, Src: [2]isa.LogicalReg{{Class: isa.RegInt, Index: 3}},
		Dst: isa.LogicalReg{Class: isa.RegInt, Index: 1}, HasDst: true,
		Addr: 0x40000, MemSize: 8, LastOfInst: true,
	}
	div := func(seq uint64, d int) trace.MicroOp {
		m := aluOp(seq, d)
		m.Op, m.Class = isa.OpDIV, isa.ClassDiv
		return m
	}
	cfg := conv()
	cfg.NumClusters = 1
	alone := mustRun(t, cfg, alloc.NewRoundRobin(1), []trace.MicroOp{load})
	both := mustRun(t, cfg, alloc.NewRoundRobin(1), []trace.MicroOp{load, div(1, 2), div(2, 4)})
	// Both divides finish (2 x 15 cycles) well inside the miss, so they
	// retire right behind the load.
	if alone.Cycles < 60 || both.Cycles > alone.Cycles+2 {
		t.Errorf("load alone %d cycles, load + 2 divides %d: second divide issued late", alone.Cycles, both.Cycles)
	}
}
