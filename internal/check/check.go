// Package check is the self-checking layer of the simulator, in the
// spirit of DIVA-style checker cores and gem5's sanity checks: the
// paper's contribution is a set of structural *constraints* — write
// specialization (a cluster's results always land in its register
// subset), read specialization (operand subsets determine the legal
// clusters) and conservative free-list management around the §2.3
// deadlock — and this package continuously proves the timing model
// honors them while it runs.
//
// Three checker families are layered:
//
//   - The co-simulation oracle (oracle.go) replays the committed µop
//     stream against an independent internal/funcsim reference and
//     diffs every retired micro-op, so any corruption of the
//     annotated trace (or of commit ordering) is caught at the first
//     divergent retirement.
//   - Structural invariant audits (audit.go) walk the rename and
//     window state every N cycles: per-subset free-list conservation
//     with exact per-register accounting, ROB commit ordering, and
//     wakeup-table consistency.
//   - Per-commit legality checks (this file) verify write and read
//     specialization on every retirement.
//
// The forward-progress watchdog and the cycle/time budgets live in
// internal/pipeline but report through the same Violation type, and
// internal/check/inject deliberately corrupts each guarded structure
// so tests can prove every checker fires.
//
// All checkers are read-only observers: a run with checking enabled
// is cycle-identical to the same run without it.
package check

import (
	"fmt"
	"math"

	"wsrs/internal/alloc"
	"wsrs/internal/check/inject"
	"wsrs/internal/trace"
)

// Violation is the error every checker reports: which checker fired,
// when, a one-line verdict, and an optional multi-line diagnostic
// dump. Command-line tools unwrap it (errors.As) to print the
// one-line verdict and exit non-zero instead of dumping a stack.
type Violation struct {
	// Checker names the checker that fired: "oracle", "conservation",
	// "rob-order", "wakeup", "ws-legal", "rs-legal", "watchdog",
	// "cycle-budget" or "time-budget".
	Checker string
	Cycle   int64
	Summary string
	// Detail is a multi-line diagnostic dump (exact accounting table,
	// field-by-field µop diff, stall stack); may be empty.
	Detail string
}

// Error renders the one-line verdict.
func (v *Violation) Error() string {
	return fmt.Sprintf("check[%s] cycle %d: %s", v.Checker, v.Cycle, v.Summary)
}

// DefaultAuditEvery is the default cadence, in cycles, of the
// structural invariant audits.
const DefaultAuditEvery = 1024

// Config assembles a Checker.
type Config struct {
	// Refs are the per-SMT-context reference streams for the
	// co-simulation oracle (index = hardware context id). Nil or
	// empty disables the oracle; individual entries may be nil.
	Refs []RefSource
	// AuditEvery is the structural-audit cadence in cycles: 0 selects
	// DefaultAuditEvery, negative disables the audits.
	AuditEvery int64
	// Fault optionally schedules one deliberate corruption (fault
	// injection; see internal/check/inject).
	Fault *inject.Fault
}

// Stats counts the checker's work, for run reports.
type Stats struct {
	CommitsChecked uint64
	AuditsRun      uint64
}

// Checker is the per-run verification state the pipeline drives: one
// OnCommit call per retirement, one Audit call per cadence period.
// A Checker must not be shared between concurrent runs.
type Checker struct {
	oracle     *Oracle
	auditEvery int64
	fault      *inject.Fault
	stats      Stats
}

// New builds a Checker.
func New(cfg Config) *Checker {
	c := &Checker{auditEvery: cfg.AuditEvery, fault: cfg.Fault}
	if c.auditEvery == 0 {
		c.auditEvery = DefaultAuditEvery
	}
	for _, r := range cfg.Refs {
		if r != nil {
			c.oracle = NewOracle(cfg.Refs)
			break
		}
	}
	return c
}

// Stats returns the work counters so far.
func (c *Checker) Stats() Stats { return c.stats }

// Fault returns the scheduled fault, if any.
func (c *Checker) Fault() *inject.Fault { return c.fault }

// TryInject applies the scheduled fault against t once its cycle is
// reached; it reports whether a corruption happened this call.
func (c *Checker) TryInject(cycle int64, t inject.Target) bool {
	if c.fault == nil {
		return false
	}
	return c.fault.TryApply(cycle, t)
}

// Commit describes one retired micro-op to the per-commit checkers.
type Commit struct {
	Cycle   int64
	Tid     int // SMT hardware context
	Cluster int // executing cluster
	Swapped bool

	// Machine shape (constant per run, carried here to keep the
	// checker free of configuration plumbing).
	NumSubsets int
	WSRS       bool

	Uop *trace.MicroOp
	// DstSubset is the register subset of the renamed destination
	// (valid when Uop.HasDst); SrcSubsets are the subsets of the
	// captured source physical registers in operand order — the
	// read-port constraint read specialization is defined over.
	DstSubset  int
	SrcSubsets [2]int
}

// OnCommit validates one retirement: write-specialization legality,
// read-specialization legality, then the co-simulation oracle. The
// first violation is returned; the caller aborts the run.
func (c *Checker) OnCommit(ci *Commit) error {
	c.stats.CommitsChecked++
	m := ci.Uop
	if ci.NumSubsets > 1 && m.HasDst && ci.DstSubset != ci.Cluster {
		return &Violation{
			Checker: "ws-legal",
			Cycle:   ci.Cycle,
			Summary: fmt.Sprintf("write specialization broken: µop seq %d (op %v, pc %#x) executed on cluster %d but wrote subset %d",
				m.Seq, m.Op, m.PC, ci.Cluster, ci.DstSubset),
		}
	}
	if ci.WSRS && !alloc.WSRSValid(m, ci.SrcSubsets, ci.Cluster, ci.Swapped) {
		return &Violation{
			Checker: "rs-legal",
			Cycle:   ci.Cycle,
			Summary: fmt.Sprintf("read specialization broken: µop seq %d (op %v, pc %#x, %d sources) read subsets %v on cluster %d (swapped=%v)",
				m.Seq, m.Op, m.PC, m.NSrc, ci.SrcSubsets[:m.NSrc], ci.Cluster, ci.Swapped),
		}
	}
	if c.oracle != nil {
		if v := c.oracle.Step(ci); v != nil {
			return v
		}
	}
	return nil
}

// AuditDue reports whether the structural audits should run at the
// end of this cycle.
func (c *Checker) AuditDue(cycle int64) bool {
	return c.auditEvery > 0 && cycle%c.auditEvery == 0
}

// NextDue returns the first cycle after cycle at which TryInject or
// AuditDue may act, so a caller that skips idle cycles still lands on
// every audit and on every cycle a pending fault is tried.
func (c *Checker) NextDue(cycle int64) int64 {
	next := int64(math.MaxInt64)
	if c.auditEvery > 0 {
		next = (cycle/c.auditEvery + 1) * c.auditEvery
	}
	if f := c.fault; f != nil {
		if _, _, applied := f.Applied(); !applied {
			next = min(next, max(f.Cycle, cycle+1))
		}
	}
	return next
}
