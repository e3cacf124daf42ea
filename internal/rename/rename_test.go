package rename

import (
	"testing"
	"testing/quick"

	"wsrs/internal/isa"
)

func conv256() Config {
	return Config{NumSubsets: 1, IntRegs: 256, FPRegs: 256, Impl: ImplExactCount}
}

func ws4x128() Config {
	return Config{NumSubsets: 4, IntRegs: 512, FPRegs: 512, Impl: ImplExactCount}
}

func intReg(i int) isa.LogicalReg {
	return isa.LogicalReg{Class: isa.RegInt, Index: uint8(i)}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{NumSubsets: 0, IntRegs: 256, FPRegs: 256},
		{NumSubsets: 3, IntRegs: 256, FPRegs: 256},                     // not divisible
		{NumSubsets: 1, IntRegs: 64, FPRegs: 256},                      // < logical
		{NumSubsets: 1, IntRegs: 256, FPRegs: 16},                      // < fp logical
		{NumSubsets: 4, IntRegs: 512, FPRegs: 512, Impl: ImplOverPick}, // missing widths
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
	if err := conv256().Validate(); err != nil {
		t.Errorf("conventional config invalid: %v", err)
	}
}

func TestInitialMappingSpreadsSubsets(t *testing.T) {
	r, err := New(ws4x128())
	if err != nil {
		t.Fatal(err)
	}
	counts := r.LiveSubsetCounts(isa.RegInt)
	total := 0
	for s, n := range counts {
		if n == 0 {
			t.Errorf("subset %d holds no initial mappings", s)
		}
		total += n
	}
	if total != isa.IntMapSize {
		t.Errorf("live mappings = %d, want %d", total, isa.IntMapSize)
	}
	// Free registers: 512 - 84 mapped.
	free := 0
	for s := 0; s < 4; s++ {
		free += r.FreeCount(isa.RegInt, s)
	}
	if free != 512-isa.IntMapSize {
		t.Errorf("free = %d, want %d", free, 512-isa.IntMapSize)
	}
}

func TestRenameBasic(t *testing.T) {
	r, _ := New(ws4x128())
	l := intReg(5)
	old := r.Lookup(l)
	newP, prevP, ok := r.Rename(l, 2)
	if !ok {
		t.Fatal("rename failed")
	}
	if prevP != old {
		t.Errorf("prev = %d, want %d", prevP, old)
	}
	if r.Lookup(l) != newP {
		t.Error("map table not updated")
	}
	if r.SubsetOf(isa.RegInt, newP) != 2 {
		t.Errorf("new register in subset %d, want 2 (write specialization)", r.SubsetOf(isa.RegInt, newP))
	}
	if r.SubsetOfLogical(l) != 2 {
		t.Error("f/s vector must track the new subset")
	}
}

func TestWriteSpecializationInvariant(t *testing.T) {
	// Property: Rename(l, s) always yields a register of subset s.
	r, _ := New(ws4x128())
	f := func(lIdx, sub uint8) bool {
		l := intReg(int(lIdx) % isa.IntMapSize)
		s := int(sub) % 4
		p, prev, ok := r.Rename(l, s)
		if !ok {
			return true // exhausted; fine for the property
		}
		r.Free(isa.RegInt, prev)
		return r.SubsetOf(isa.RegInt, p) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestExhaustionAndFree(t *testing.T) {
	r, _ := New(ws4x128())
	l := intReg(1)
	// Drain subset 0: it starts with 128 - 21 = 107 free (logical
	// indices 0,4,8,... mapped there initially).
	var prevs []PhysReg
	n := 0
	for {
		_, prev, ok := r.Rename(l, 0)
		if !ok {
			break
		}
		prevs = append(prevs, prev)
		n++
	}
	if got := r.FreeCount(isa.RegInt, 0); got != 0 {
		t.Errorf("free count after drain = %d", got)
	}
	if r.StallHint == 0 {
		t.Error("failed rename must bump StallHint")
	}
	// Other subsets unaffected.
	if r.FreeCount(isa.RegInt, 1) == 0 {
		t.Error("subset 1 should still have free registers")
	}
	// Freeing prev mappings replenishes.
	for _, p := range prevs {
		r.Free(isa.RegInt, p)
	}
	if _, _, ok := r.Rename(l, 0); !ok {
		t.Error("rename after free must succeed")
	}
}

func TestFreeNoneIsNoop(t *testing.T) {
	r, _ := New(conv256())
	before := r.FreeCount(isa.RegInt, 0)
	r.Free(isa.RegInt, None)
	if r.FreeCount(isa.RegInt, 0) != before {
		t.Error("Free(None) must not change the free list")
	}
}

func TestConventionalSingleSubset(t *testing.T) {
	r, _ := New(conv256())
	for i := 0; i < 100; i++ {
		p, prev, ok := r.Rename(intReg(i%isa.IntMapSize), 0)
		if !ok {
			t.Fatal("conventional rename should not exhaust here")
		}
		if r.SubsetOf(isa.RegInt, p) != 0 {
			t.Fatal("single subset must be 0")
		}
		r.Free(isa.RegInt, prev)
	}
}

func TestFPClassIndependent(t *testing.T) {
	r, _ := New(ws4x128())
	fp := isa.LogicalReg{Class: isa.RegFP, Index: 3}
	intBefore := r.FreeCount(isa.RegInt, 1)
	_, _, ok := r.Rename(fp, 1)
	if !ok {
		t.Fatal("fp rename failed")
	}
	if r.FreeCount(isa.RegInt, 1) != intBefore {
		t.Error("fp rename must not consume int registers")
	}
	if r.SubsetOfLogical(fp) != 1 {
		t.Error("fp subset tracking broken")
	}
}

func TestOverPickReservationAndRecycling(t *testing.T) {
	cfg := ws4x128()
	cfg.Impl = ImplOverPick
	cfg.OverPickWidth = 8
	cfg.RecycleDepth = 4
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Before any BeginCycle, nothing is reserved: renames fail.
	if _, _, ok := r.Rename(intReg(1), 0); ok {
		t.Fatal("over-pick rename before BeginCycle must fail")
	}
	r.BeginCycle()
	// Now up to 8 renames per subset succeed.
	for i := 0; i < 8; i++ {
		if _, _, ok := r.Rename(intReg(1+i), 0); !ok {
			t.Fatalf("rename %d failed", i)
		}
	}
	if _, _, ok := r.Rename(intReg(9), 0); ok {
		t.Fatal("9th rename in one cycle must fail (width 8)")
	}
	// Unused picks are wasted into the recycling pipeline at the next
	// BeginCycle: 3x8 int picks (subset 0 was fully consumed) plus
	// all 4x8 fp picks.
	r.BeginCycle()
	if r.Wasted != 3*8+4*8 {
		t.Errorf("wasted = %d, want 56", r.Wasted)
	}
	if r.InFlightRecycle(isa.RegInt) != 24 {
		t.Errorf("in-flight recycle = %d, want 24", r.InFlightRecycle(isa.RegInt))
	}
}

func TestOverPickRecyclingReturnsRegisters(t *testing.T) {
	cfg := Config{
		NumSubsets: 4, IntRegs: 512, FPRegs: 512,
		Impl: ImplOverPick, OverPickWidth: 8, RecycleDepth: 3,
	}
	r, _ := New(cfg)
	total := func() int {
		n := r.InFlightRecycle(isa.RegInt)
		for s := 0; s < 4; s++ {
			n += r.FreeCount(isa.RegInt, s)
		}
		return n
	}
	want := 512 - isa.IntMapSize
	for cycle := 0; cycle < 50; cycle++ {
		r.BeginCycle()
		// Conservation: free + reserved + recycling is constant when
		// nothing is renamed.
		if got := total(); got != want {
			t.Fatalf("cycle %d: register conservation broken: %d != %d", cycle, got, want)
		}
	}
}

func TestOverPickCommitFreedRecycles(t *testing.T) {
	cfg := Config{
		NumSubsets: 1, IntRegs: 256, FPRegs: 256,
		Impl: ImplOverPick, OverPickWidth: 4, RecycleDepth: 2,
	}
	r, _ := New(cfg)
	r.BeginCycle()
	_, prev, ok := r.Rename(intReg(1), 0)
	if !ok {
		t.Fatal("rename failed")
	}
	free0 := r.FreeCount(isa.RegInt, 0)
	r.Free(isa.RegInt, prev)
	if r.FreeCount(isa.RegInt, 0) != free0 {
		t.Error("commit-freed register must not be immediately available in impl 1")
	}
	// After RecycleDepth+1 BeginCycles it must be back.
	for i := 0; i < cfg.RecycleDepth+1; i++ {
		r.BeginCycle()
	}
	// Count all registers: none may be lost.
	totalFree := r.FreeCount(isa.RegInt, 0) + r.InFlightRecycle(isa.RegInt)
	if totalFree != 256-isa.IntMapSize {
		t.Errorf("register leak: free+recycling = %d, want %d", totalFree, 256-isa.IntMapSize)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Tiny subsets: 24 registers per subset < 84 logical; saturate
	// subset 0 by renaming many logical registers into it.
	cfg := Config{NumSubsets: 4, IntRegs: 96, FPRegs: 128, Impl: ImplExactCount}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := 0
	for {
		_, prev, ok := r.Rename(intReg(l), 0)
		if !ok {
			break
		}
		// Commit immediately: the previous mapping becomes free, so
		// eventually all 24 subset-0 registers hold architectural state.
		r.Free(isa.RegInt, prev)
		l = (l + 1) % isa.IntMapSize
	}
	if !r.Deadlocked(isa.RegInt, 0) {
		t.Fatalf("subset 0 must be deadlocked; live=%v free=%d",
			r.LiveSubsetCounts(isa.RegInt), r.FreeCount(isa.RegInt, 0))
	}
	// Workaround (b): inject a move, then renaming succeeds again.
	moved, to, ok := r.InjectMove(isa.RegInt, 0)
	if !ok {
		t.Fatal("move injection failed")
	}
	if to == 0 {
		t.Error("move must target another subset")
	}
	if r.SubsetOfLogical(moved) != to {
		t.Error("moved register must be remapped")
	}
	if r.Deadlocked(isa.RegInt, 0) {
		t.Error("deadlock must clear after the move")
	}
	if _, _, ok := r.Rename(intReg(0), 0); !ok {
		t.Error("rename must succeed after move injection")
	}
	if r.Moves != 1 {
		t.Errorf("Moves = %d, want 1", r.Moves)
	}
}

func TestNoDeadlockWithLargeSubsets(t *testing.T) {
	// Paper §2.3: subsets at least as large as the logical register
	// count cannot deadlock. 128 >= 84.
	r, _ := New(ws4x128())
	for i := 0; i < 4; i++ {
		if r.Deadlocked(isa.RegInt, i) {
			t.Errorf("subset %d deadlocked with 128 registers", i)
		}
	}
	// Even after renaming everything into subset 0.
	for l := 0; l < isa.IntMapSize; l++ {
		_, prev, ok := r.Rename(intReg(l), 0)
		if !ok {
			t.Fatal("unexpected exhaustion")
		}
		r.Free(isa.RegInt, prev)
	}
	if r.Deadlocked(isa.RegInt, 0) {
		t.Error("subset 0 cannot deadlock: 128 > 84 logical registers")
	}
}

func TestRegisterConservationProperty(t *testing.T) {
	// Property: after arbitrary rename/free sequences, every physical
	// register is in exactly one place (mapped, free, or in-flight).
	r, _ := New(ws4x128())
	var inflight []PhysReg
	f := func(ops []uint16) bool {
		for _, o := range ops {
			l := intReg(int(o) % isa.IntMapSize)
			s := int(o>>8) % 4
			if o%3 == 0 && len(inflight) > 0 {
				r.Free(isa.RegInt, inflight[0])
				inflight = inflight[1:]
				continue
			}
			if _, prev, ok := r.Rename(l, s); ok {
				inflight = append(inflight, prev)
			}
		}
		free := 0
		for s := 0; s < 4; s++ {
			free += r.FreeCount(isa.RegInt, s)
		}
		return free+len(inflight)+isa.IntMapSize == 512
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestImplString(t *testing.T) {
	if ImplExactCount.String() != "exact-count" || ImplOverPick.String() != "over-pick" {
		t.Error("impl names")
	}
}

func TestQuiescent(t *testing.T) {
	r, _ := New(ws4x128())
	r.BeginCycle()
	if !r.Quiescent() {
		t.Fatal("implementation 2 must always be quiescent")
	}
	// Implementation 1 with exactly two spare integer registers and no
	// spare fp register: quiescent only once both are renamed and
	// nothing is left to pick, reserve or recycle.
	r, err := New(Config{
		NumSubsets: 1, IntRegs: isa.IntMapSize + 2, FPRegs: isa.NumFPLogical,
		Impl: ImplOverPick, OverPickWidth: 4, RecycleDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Quiescent() {
		t.Fatal("free registers waiting to be picked, yet quiescent")
	}
	r.BeginCycle()
	if r.Quiescent() {
		t.Fatal("registers reserved, yet quiescent")
	}
	r.Rename(intReg(1), 0)
	_, prev, _ := r.Rename(intReg(2), 0)
	if !r.Quiescent() {
		t.Fatal("nothing reserved, free or recycling, yet not quiescent")
	}
	r.Free(isa.RegInt, prev)
	if r.Quiescent() {
		t.Fatal("a commit-freed register awaits recycling, yet quiescent")
	}
	r.BeginCycle()
	if r.Quiescent() {
		t.Fatal("a register is in the recycling pipeline, yet quiescent")
	}
}
