// Package rename implements register renaming with Register Write
// Specialization (paper §2): the physical register file is divided
// into distinct subsets S0..Sk-1 and the result of an instruction
// executed on cluster Ci is always allocated from subset Si. A
// conventional renamer is the one-subset special case.
//
// Both renaming implementations of §2.2 are provided:
//
//   - Implementation 1 ("over-pick"): every cycle, N free registers are
//     picked from each subset's free list; registers picked but not
//     assigned are recycled through a pipelined recycling queue and are
//     unavailable while in flight.
//   - Implementation 2 ("exact-count"): the exact number of registers
//     required from each subset is computed from the subset target
//     vector and picked; nothing is wasted, at the price of a longer
//     renaming pipeline (modelled by the pipeline's misprediction
//     penalty, as in §5.2.1).
//
// The package also maintains the f/s subset bit-vectors of §3.2 (the
// subset number of the physical register currently mapped to each
// logical register — exactly what WSRS cluster allocation consumes)
// and implements the deadlock workaround (b) of §2.3: injecting moves
// that re-map logical registers onto other subsets.
package rename

import (
	"fmt"

	"wsrs/internal/isa"
)

// PhysReg is a physical register index within its class's file.
type PhysReg int32

// None marks "no physical register".
const None PhysReg = -1

// Impl selects the renaming implementation of §2.2.
type Impl int

// Renaming implementations.
const (
	ImplExactCount Impl = iota // §2.2.2: exact per-subset counts
	ImplOverPick               // §2.2.1: over-pick plus recycling pipeline
)

// String names the implementation.
func (i Impl) String() string {
	if i == ImplOverPick {
		return "over-pick"
	}
	return "exact-count"
}

// Config sizes the renamer.
type Config struct {
	// NumSubsets is the number of write-specialized register subsets
	// (1 for a conventional machine, one per cluster otherwise).
	NumSubsets int
	// Threads is the number of SMT hardware contexts sharing the
	// physical register file (default 1). Each context has its own
	// map table; with several contexts the combined architectural
	// state can exceed a subset's size, which is exactly the deadlock
	// scenario §2.3 of the paper flags for SMT machines.
	Threads int
	// IntRegs and FPRegs are the *total* physical register counts of
	// each class, split evenly across subsets.
	IntRegs int
	FPRegs  int

	Impl Impl
	// OverPickWidth is the number of registers implementation 1 picks
	// from each free list per cycle (the rename width N of §2.2.1).
	OverPickWidth int
	// RecycleDepth is the length, in cycles, of implementation 1's
	// free-register recycling pipeline.
	RecycleDepth int
}

// threads returns the configured context count (>= 1).
func (c Config) threads() int {
	if c.Threads < 1 {
		return 1
	}
	return c.Threads
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumSubsets < 1 {
		return fmt.Errorf("rename: NumSubsets %d < 1", c.NumSubsets)
	}
	if c.IntRegs%c.NumSubsets != 0 || c.FPRegs%c.NumSubsets != 0 {
		return fmt.Errorf("rename: register counts (%d int, %d fp) must divide evenly into %d subsets",
			c.IntRegs, c.FPRegs, c.NumSubsets)
	}
	t := c.threads()
	if c.IntRegs < t*isa.IntMapSize {
		return fmt.Errorf("rename: %d int physical registers cannot back %d contexts x %d logical registers",
			c.IntRegs, t, isa.IntMapSize)
	}
	if c.FPRegs < t*isa.NumFPLogical {
		return fmt.Errorf("rename: %d fp physical registers cannot back %d contexts x %d logical registers",
			c.FPRegs, t, isa.NumFPLogical)
	}
	if c.Impl == ImplOverPick && (c.OverPickWidth < 1 || c.RecycleDepth < 1) {
		return fmt.Errorf("rename: over-pick needs positive width and recycle depth")
	}
	return nil
}

// freeList is a FIFO of free physical registers for one subset,
// backed by a ring buffer: pop-front does not slide the slice window
// (the old slice-FIFO leaked capacity on every pop and reallocated
// under churn).
type freeList struct {
	regs []PhysReg
	head int
	n    int
}

func (f *freeList) push(p PhysReg) {
	if f.n == len(f.regs) {
		f.grow(f.n + 1)
	}
	i := f.head + f.n
	if i >= len(f.regs) {
		i -= len(f.regs)
	}
	f.regs[i] = p
	f.n++
}

func (f *freeList) pop() (PhysReg, bool) {
	if f.n == 0 {
		return None, false
	}
	p := f.regs[f.head]
	f.head++
	if f.head == len(f.regs) {
		f.head = 0
	}
	f.n--
	return p, true
}

func (f *freeList) len() int { return f.n }

// at returns the i-th entry in FIFO order (0 = next to pop).
func (f *freeList) at(i int) PhysReg {
	j := f.head + i
	if j >= len(f.regs) {
		j -= len(f.regs)
	}
	return f.regs[j]
}

// grow re-linearizes the ring into a larger backing array. Steady
// state never grows: a subset holds at most its register count, which
// reset pre-sizes for (only the fault-injection double-free can push
// beyond it).
func (f *freeList) grow(want int) {
	c := 2*len(f.regs) + 1
	if c < want {
		c = want
	}
	regs := make([]PhysReg, c)
	for i := 0; i < f.n; i++ {
		regs[i] = f.at(i)
	}
	f.regs, f.head = regs, 0
}

// reset empties the list, ensuring capacity for capHint registers.
func (f *freeList) reset(capHint int) {
	if len(f.regs) < capHint {
		f.regs = make([]PhysReg, capHint)
	}
	f.head, f.n = 0, 0
}

// classState is the renaming state of one register class.
type classState struct {
	mapTable [][]PhysReg // per thread: logical -> physical
	free     []*freeList // per subset
	perSub   int         // physical registers per subset

	// Implementation 1 state: registers reserved this cycle, the
	// recycling pipeline (stage 0 re-enters the free lists next
	// BeginCycle), and commit-freed registers awaiting recycling —
	// §2.2.1 sends both "registers freed by committed instructions"
	// and "registers that were not attributed" through the pipeline.
	reserved    [][]PhysReg // per subset, the cycle's picked registers
	recycle     [][]PhysReg // [stage][...], all subsets mixed
	pendingFree []PhysReg   // commit-freed, joins the pipeline next cycle
}

// Renamer renames logical to physical registers under register write
// specialization.
type Renamer struct {
	cfg Config
	cls [2]*classState // indexed by isa.RegClass

	// Stats.
	Renames   uint64
	Wasted    uint64 // impl 1: registers sent through the recycling pipeline
	Moves     uint64 // deadlock-workaround move injections
	StallHint uint64 // failed Rename calls (stall pressure indicator)
}

// New builds a renamer. Every logical register receives an initial
// physical register; initial mappings are distributed round-robin
// across subsets so the f/s vectors start spread out.
func New(cfg Config) (*Renamer, error) {
	r := &Renamer{}
	if err := r.Reset(cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset restores the freshly constructed state for cfg, reusing the
// existing map tables, free-list rings and recycling stages whenever
// their capacity fits (possibly a different configuration than the
// last run — grid cells sweep register counts and subset splits). A
// reset renamer is indistinguishable from New(cfg).
func (r *Renamer) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	r.cfg = cfg
	r.Renames, r.Wasted, r.Moves, r.StallHint = 0, 0, 0, 0
	r.cls[isa.RegInt] = resetClass(r.cls[isa.RegInt], cfg, isa.IntMapSize, cfg.IntRegs)
	r.cls[isa.RegFP] = resetClass(r.cls[isa.RegFP], cfg, isa.NumFPLogical, cfg.FPRegs)
	return nil
}

// resetClass rebuilds one register class's state in place.
func resetClass(cs *classState, cfg Config, logical, total int) *classState {
	if cs == nil {
		cs = &classState{}
	}
	threads := cfg.threads()
	per := total / cfg.NumSubsets
	cs.perSub = per

	cs.mapTable = resize(cs.mapTable, threads)
	for t := range cs.mapTable {
		cs.mapTable[t] = resize(cs.mapTable[t], logical)
	}
	cs.free = resize(cs.free, cfg.NumSubsets)
	for s := range cs.free {
		if cs.free[s] == nil {
			cs.free[s] = &freeList{}
		}
		cs.free[s].reset(per)
	}
	cs.reserved = resize(cs.reserved, cfg.NumSubsets)
	for s := range cs.reserved {
		cs.reserved[s] = cs.reserved[s][:0]
	}
	cs.recycle = resize(cs.recycle, cfg.RecycleDepth)
	for i := range cs.recycle {
		cs.recycle[i] = cs.recycle[i][:0]
	}
	cs.pendingFree = cs.pendingFree[:0]

	for s := 0; s < cfg.NumSubsets; s++ {
		for i := 0; i < per; i++ {
			cs.free[s].push(PhysReg(s*per + i))
		}
	}
	for t := 0; t < threads; t++ {
		for l := 0; l < logical; l++ {
			s := (l + t) % cfg.NumSubsets
			p, ok := cs.free[s].pop()
			if !ok {
				// Fall back to any subset with a free register
				// (tiny-subset configurations).
				for d := 0; d < cfg.NumSubsets; d++ {
					if p, ok = cs.free[d].pop(); ok {
						break
					}
				}
			}
			cs.mapTable[t][l] = p
		}
	}
	return cs
}

// resize returns s with length n, reusing both the backing array and
// (when shrinking then re-growing) the elements parked between length
// and capacity.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	out := make([]T, n)
	copy(out, s[:cap(s)])
	return out
}

// Config returns the renamer's configuration.
func (r *Renamer) Config() Config { return r.cfg }

// SubsetOf returns the subset that physical register p of class c
// belongs to.
func (r *Renamer) SubsetOf(c isa.RegClass, p PhysReg) int {
	return int(p) / r.cls[c].perSub
}

// Lookup returns the physical register currently mapped to l in
// context 0 (single-threaded machines).
func (r *Renamer) Lookup(l isa.LogicalReg) PhysReg {
	return r.LookupT(0, l)
}

// LookupT returns the physical register mapped to l in SMT context tid.
func (r *Renamer) LookupT(tid int, l isa.LogicalReg) PhysReg {
	return r.cls[l.Class].mapTable[tid][l.Index]
}

// SubsetOfLogical returns the subset holding logical register l — the
// concatenated f/s bit-vector entry of §3.2 that drives WSRS cluster
// allocation (context 0).
func (r *Renamer) SubsetOfLogical(l isa.LogicalReg) int {
	return r.SubsetOf(l.Class, r.Lookup(l))
}

// SubsetOfLogicalT is SubsetOfLogical for SMT context tid.
func (r *Renamer) SubsetOfLogicalT(tid int, l isa.LogicalReg) int {
	return r.SubsetOf(l.Class, r.LookupT(tid, l))
}

// FreeCount returns the number of immediately allocatable registers of
// class c in subset s (excluding registers inside the recycling
// pipeline or this cycle's reservation).
func (r *Renamer) FreeCount(c isa.RegClass, s int) int {
	cs := r.cls[c]
	n := cs.free[s].len()
	if r.cfg.Impl == ImplOverPick {
		n += len(cs.reserved[s])
	}
	return n
}

// InFlightRecycle returns how many registers of class c are currently
// unavailable inside implementation 1's recycling pipeline.
func (r *Renamer) InFlightRecycle(c isa.RegClass) int {
	n := 0
	for _, st := range r.cls[c].recycle {
		n += len(st)
	}
	return n
}

// BeginCycle advances per-cycle renamer state. For implementation 1 it
// (a) returns the previous cycle's unused reservations into the
// recycling pipeline, (b) advances the pipeline one stage, re-appending
// registers that completed recycling to their free lists, and (c)
// reserves up to OverPickWidth registers from every subset free list
// for the coming cycle.
func (r *Renamer) BeginCycle() {
	if r.cfg.Impl != ImplOverPick {
		return
	}
	for _, cs := range r.cls {
		// (a) unused reservations and commit-freed registers enter
		// the recycling pipeline together (§2.2.1 merges both lists).
		var spill []PhysReg
		for s := range cs.reserved {
			spill = append(spill, cs.reserved[s]...)
			cs.reserved[s] = cs.reserved[s][:0]
		}
		r.Wasted += uint64(len(spill))
		spill = append(spill, cs.pendingFree...)
		cs.pendingFree = cs.pendingFree[:0]
		// (b) advance the pipeline.
		if n := len(cs.recycle); n > 0 {
			out := cs.recycle[0]
			copy(cs.recycle, cs.recycle[1:])
			cs.recycle[n-1] = spill
			for _, p := range out {
				cs.free[r.subsetOfState(cs, p)].push(p)
			}
		} else {
			for _, p := range spill {
				cs.free[r.subsetOfState(cs, p)].push(p)
			}
		}
		// (c) reserve this cycle's picks.
		for s := range cs.free {
			for i := 0; i < r.cfg.OverPickWidth; i++ {
				p, ok := cs.free[s].pop()
				if !ok {
					break
				}
				cs.reserved[s] = append(cs.reserved[s], p)
			}
		}
	}
}

// Quiescent reports whether BeginCycle leaves the renamer unchanged
// until the next Rename, Free or move: always for implementation 2;
// for implementation 1 only when no register is reserved, recycling,
// awaiting recycling or free to be picked.
func (r *Renamer) Quiescent() bool {
	if r.cfg.Impl != ImplOverPick {
		return true
	}
	for _, cs := range r.cls {
		if len(cs.pendingFree) > 0 {
			return false
		}
		for _, st := range cs.recycle {
			if len(st) > 0 {
				return false
			}
		}
		for s := range cs.free {
			if cs.free[s].len() > 0 || len(cs.reserved[s]) > 0 {
				return false
			}
		}
	}
	return true
}

func (r *Renamer) subsetOfState(cs *classState, p PhysReg) int {
	return int(p) / cs.perSub
}

// CanRename reports whether a destination of class c can be renamed
// into subset s right now.
func (r *Renamer) CanRename(c isa.RegClass, s int) bool {
	cs := r.cls[c]
	if r.cfg.Impl == ImplOverPick {
		return len(cs.reserved[s]) > 0
	}
	return cs.free[s].len() > 0
}

// Rename maps logical register l to a fresh physical register from
// subset s, returning the new mapping and the previous one (to be
// freed when the renaming instruction commits). ok is false when the
// subset has no allocatable register; the caller must stall (or invoke
// the deadlock workaround).
func (r *Renamer) Rename(l isa.LogicalReg, s int) (newP, prevP PhysReg, ok bool) {
	return r.RenameT(0, l, s)
}

// RenameT is Rename for SMT context tid.
func (r *Renamer) RenameT(tid int, l isa.LogicalReg, s int) (newP, prevP PhysReg, ok bool) {
	cs := r.cls[l.Class]
	var p PhysReg
	if r.cfg.Impl == ImplOverPick {
		res := cs.reserved[s]
		if len(res) == 0 {
			r.StallHint++
			return None, None, false
		}
		p = res[0]
		cs.reserved[s] = res[1:]
	} else {
		var got bool
		p, got = cs.free[s].pop()
		if !got {
			r.StallHint++
			return None, None, false
		}
	}
	prev := cs.mapTable[tid][l.Index]
	cs.mapTable[tid][l.Index] = p
	r.Renames++
	return p, prev, true
}

// Free returns physical register p of class c to its subset's free
// list (called when the instruction that superseded p's mapping
// commits).
func (r *Renamer) Free(c isa.RegClass, p PhysReg) {
	if p == None {
		return
	}
	cs := r.cls[c]
	if r.cfg.Impl == ImplOverPick {
		// Commit-freed registers travel through the recycling
		// pipeline like unassigned picks (§2.2.1).
		cs.pendingFree = append(cs.pendingFree, p)
		return
	}
	cs.free[r.subsetOfState(cs, p)].push(p)
}

// LiveSubsetCounts returns, for class c, how many logical registers
// (across all SMT contexts) are currently mapped to each subset — the
// quantity whose saturation produces the deadlock of §2.3. With
// several contexts the combined architectural state can exceed a
// subset, which is why §2.3 calls the subset-per-logical-count sizing
// unrealistic "for SMTs".
func (r *Renamer) LiveSubsetCounts(c isa.RegClass) []int {
	cs := r.cls[c]
	counts := make([]int, r.cfg.NumSubsets)
	for _, mt := range cs.mapTable {
		for _, p := range mt {
			counts[r.subsetOfState(cs, p)]++
		}
	}
	return counts
}

// Deadlocked reports whether renaming a destination of class c into
// subset s can never succeed without intervention: the subset has no
// free register, none reserved, none recycling, and every register of
// the subset is mapped by the map table (architectural state), so no
// in-flight commit can ever free one. This is the deadlock of §2.3.
func (r *Renamer) Deadlocked(c isa.RegClass, s int) bool {
	cs := r.cls[c]
	if cs.free[s].len() > 0 || len(cs.reserved[s]) > 0 {
		return false
	}
	for _, st := range cs.recycle {
		for _, p := range st {
			if r.subsetOfState(cs, p) == s {
				return false
			}
		}
	}
	for _, p := range cs.pendingFree {
		if r.subsetOfState(cs, p) == s {
			return false
		}
	}
	return r.LiveSubsetCounts(c)[s] == cs.perSub
}

// InjectMove applies the deadlock workaround (b) of §2.3: it re-maps
// one logical register currently held in subset s onto a free register
// of another subset, freeing one register of s. It returns the logical
// register moved and its new subset, or ok=false when no other subset
// has a free register (a true global deadlock, impossible when total
// physical registers exceed total logical registers).
//
// The caller is responsible for charging the cost of the architectural
// move (the pipeline models it as an injected micro-op).
func (r *Renamer) InjectMove(c isa.RegClass, s int) (moved isa.LogicalReg, to int, ok bool) {
	return r.InjectMoveAvoiding(c, s, nil)
}

// InjectMoveAvoiding is InjectMove restricted to mappings the caller
// considers safe to move: logical registers whose current physical
// register satisfies avoid are skipped. The pipeline passes its set
// of in-flight destinations — re-mapping one of those would copy a
// value that does not architecturally exist yet and would free a
// register whose producer is still executing. ok=false also when
// every mapping of s is excluded; the workaround then retries once
// an in-flight producer commits.
func (r *Renamer) InjectMoveAvoiding(c isa.RegClass, s int, avoid func(PhysReg) bool) (moved isa.LogicalReg, to int, ok bool) {
	cs := r.cls[c]
	// Find a donor subset with a free register.
	donor := -1
	for d := 0; d < r.cfg.NumSubsets; d++ {
		if d != s && cs.free[d].len() > 0 {
			donor = d
			break
		}
	}
	if donor < 0 {
		return isa.LogicalReg{}, 0, false
	}
	// Find a logical register (in any context) mapped into s.
	for _, mt := range cs.mapTable {
		for l := range mt {
			if r.subsetOfState(cs, mt[l]) != s {
				continue
			}
			if avoid != nil && avoid(mt[l]) {
				continue
			}
			p, _ := cs.free[donor].pop()
			old := mt[l]
			mt[l] = p
			cs.free[s].push(old)
			r.Moves++
			return isa.LogicalReg{Class: c, Index: uint8(l)}, donor, true
		}
	}
	return isa.LogicalReg{}, 0, false
}

// AuditCounts is a read-only exact-accounting snapshot of one
// register class, consumed by the conservation audit of
// internal/check. Conservation demands that every physical register
// sit in exactly one place: FreeSide[p] + MapSide[p] plus the
// pipeline's count of in-flight previous mappings (which only the
// ROB knows) must equal 1 for every p.
type AuditCounts struct {
	NumSubsets int
	PerSubset  int

	// Per-subset totals of each free-side structure and of the map
	// tables.
	Free        []int
	Reserved    []int
	Recycling   []int
	PendingFree []int
	Mapped      []int

	// Per-physical-register occurrence counts: FreeSide[p] counts how
	// many times p sits in a free structure (free list, this cycle's
	// reservation, the recycling pipeline, the pending-free queue);
	// MapSide[p] counts map-table entries across all SMT contexts
	// pointing at p.
	FreeSide []uint16
	MapSide  []uint16
}

// Audit snapshots the exact accounting of class c. It allocates and
// walks every structure, so it is meant for a periodic audit cadence,
// not per cycle.
func (r *Renamer) Audit(c isa.RegClass) AuditCounts {
	cs := r.cls[c]
	n := cs.perSub * r.cfg.NumSubsets
	ac := AuditCounts{
		NumSubsets:  r.cfg.NumSubsets,
		PerSubset:   cs.perSub,
		Free:        make([]int, r.cfg.NumSubsets),
		Reserved:    make([]int, r.cfg.NumSubsets),
		Recycling:   make([]int, r.cfg.NumSubsets),
		PendingFree: make([]int, r.cfg.NumSubsets),
		Mapped:      make([]int, r.cfg.NumSubsets),
		FreeSide:    make([]uint16, n),
		MapSide:     make([]uint16, n),
	}
	count := func(p PhysReg, side []uint16, perSubset []int) {
		if int(p) < 0 || int(p) >= n {
			return // corrupt entry; the exact accounting reports the victim as lost
		}
		side[p]++
		perSubset[r.subsetOfState(cs, p)]++
	}
	for _, f := range cs.free {
		for i := 0; i < f.len(); i++ {
			count(f.at(i), ac.FreeSide, ac.Free)
		}
	}
	for _, res := range cs.reserved {
		for _, p := range res {
			count(p, ac.FreeSide, ac.Reserved)
		}
	}
	for _, st := range cs.recycle {
		for _, p := range st {
			count(p, ac.FreeSide, ac.Recycling)
		}
	}
	for _, p := range cs.pendingFree {
		count(p, ac.FreeSide, ac.PendingFree)
	}
	for _, mt := range cs.mapTable {
		for _, p := range mt {
			count(p, ac.MapSide, ac.Mapped)
		}
	}
	return ac
}

// The three helpers below deliberately corrupt renamer state for the
// fault-injection harness (internal/check/inject); they exist so
// tests and CI can prove the conservation audit actually fires. They
// must never be called outside fault injection.

// CorruptMapEntry flips the context-0 mapping of the first logical
// register of class c to a different physical register WITHOUT
// updating any free list: the old register leaks out of the
// accounting and the new one becomes double-booked.
func (r *Renamer) CorruptMapEntry(c isa.RegClass) (l isa.LogicalReg, from, to PhysReg, ok bool) {
	cs := r.cls[c]
	total := cs.perSub * r.cfg.NumSubsets
	if total < 2 {
		return isa.LogicalReg{}, None, None, false
	}
	from = cs.mapTable[0][0]
	step := cs.perSub // land in the next subset when there is one
	if r.cfg.NumSubsets == 1 {
		step = 1
	}
	to = PhysReg((int(from) + step) % total)
	cs.mapTable[0][0] = to
	return isa.LogicalReg{Class: c, Index: 0}, from, to, true
}

// LeakFreeRegister pops a register from the first non-empty free
// structure of class c and drops it on the floor.
func (r *Renamer) LeakFreeRegister(c isa.RegClass) (p PhysReg, subset int, ok bool) {
	cs := r.cls[c]
	for s, f := range cs.free {
		if p, got := f.pop(); got {
			return p, s, true
		}
	}
	for s, res := range cs.reserved {
		if len(res) > 0 {
			p := res[0]
			cs.reserved[s] = res[1:]
			return p, s, true
		}
	}
	return None, 0, false
}

// DupFreeRegister pushes the context-0 mapping of the first logical
// register of class c back onto its subset's free list while it is
// still architecturally mapped — the register now exists twice.
func (r *Renamer) DupFreeRegister(c isa.RegClass) (p PhysReg, ok bool) {
	cs := r.cls[c]
	p = cs.mapTable[0][0]
	cs.free[r.subsetOfState(cs, p)].push(p)
	return p, true
}
