// Package pipeline is the cycle-level timing model of the 8-way
// 4-cluster dynamically scheduled processor of the paper's evaluation
// (§5.2): an ideal 8-µop/cycle front end, register renaming with or
// without write specialization, cluster allocation with or without
// read specialization (WSRS), per-cluster 2-issue out-of-order
// scheduling with intra-cluster fast-forwarding and a one-cycle
// cross-cluster forwarding delay, in-order memory address computation
// with loads bypassing stores, a two-level cache hierarchy, and
// in-order commit.
//
// Pipeline-depth differences between the configurations are folded
// into the minimum branch-misprediction penalty, exactly as §5.2.1
// does (17 cycles for the conventional machine, 16 with write
// specialization alone, 16/18 for WSRS depending on the renaming
// implementation).
package pipeline

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"wsrs/internal/alloc"
	"wsrs/internal/bpred"
	"wsrs/internal/check"
	"wsrs/internal/cluster"
	"wsrs/internal/isa"
	"wsrs/internal/mem"
	"wsrs/internal/metrics"
	"wsrs/internal/probe"
	"wsrs/internal/rename"
	"wsrs/internal/telemetry"
	"wsrs/internal/trace"
)

// notReady marks a physical register whose producer has not issued.
const notReady = math.MaxInt64 / 4

// Config describes one simulated machine configuration.
type Config struct {
	Name string

	FetchWidth  int // µops renamed per cycle (paper: 8)
	CommitWidth int // µops committed per cycle (paper: 8)
	NumClusters int // paper: 4
	ROBSize     int // total in-flight µops (paper: 224 = 4 x 56)

	// Threads is the number of SMT hardware contexts (default 1).
	// Contexts share the fetch/rename bandwidth (fine-grained,
	// round-robin per slot), the window, the caches, the predictor
	// and the physical register file; each has its own map table. The
	// §2.3 deadlock becomes a real concern here: the combined
	// architectural state of several contexts can exceed a register
	// subset. Memory addresses of context t are offset into a private
	// region (separate address spaces).
	Threads int

	Cluster cluster.Config
	// ClusterConfigs optionally overrides Cluster per cluster,
	// enabling the heterogeneous pools-of-functional-units
	// organization of paper Figure 2b (e.g. a load/store pool, a
	// simple-ALU pool, a complex pool and a branch pool, each
	// writing its own register subset). nil replicates Cluster.
	ClusterConfigs []cluster.Config
	Rename         rename.Config

	// WSRS enables register read specialization: the allocation
	// policy's placements are validated against the read-port
	// constraints and operand subsets are fed to the policy.
	WSRS bool

	// MispredictPenalty is the per-configuration minimum branch
	// misprediction penalty (paper §5.2.1: 17 / 16 / 18 cycles),
	// charged from branch resolution to first correct-path rename.
	MispredictPenalty int
	// TrapPenalty is charged for window overflow/underflow
	// exceptions, from trap commit to first post-trap rename.
	TrapPenalty int

	// XClusterDelay is the extra forwarding latency between clusters
	// (paper §5.2: fast-forwarding inside a cluster, one cycle
	// cluster-to-cluster).
	XClusterDelay int

	// ForwardDelay optionally refines XClusterDelay into a full
	// producer-cluster x consumer-cluster delay matrix, modelling the
	// three fast-forwarding hardware options of §4.3.1 (complete
	// fast-forwarding, fast-forwarding inside pairs of adjacent
	// clusters, intra-cluster only). nil uses the uniform
	// XClusterDelay for all cross-cluster forwards.
	ForwardDelay [][]int

	Lat isa.Latencies
	Mem mem.Config

	// PredictorLogSize sizes the 2Bc-gskew predictor (16 = the
	// paper's 512 Kbit). PerfectBP replaces it with an oracle.
	PredictorLogSize uint
	PerfectBP        bool

	// DeadlockMoves enables workaround (b) of §2.3: injecting move
	// micro-ops when a register subset deadlocks.
	DeadlockMoves bool

	// SharedDividers models §4.1's alternative to replicating complex
	// integer units on every cluster: one divider shared between each
	// pair of adjacent clusters with static arbitration (even cycles:
	// even cluster; odd cycles: odd cluster).
	SharedDividers bool

	// DeadlockAvoidAlloc enables workaround (a) of §2.3: the
	// allocation of instructions to clusters is in charge of avoiding
	// the deadlock — when the chosen cluster's register subset has no
	// free register, dispatch re-steers the micro-op to another
	// allowed cluster whose subset has one (respecting read
	// specialization on WSRS machines).
	DeadlockAvoidAlloc bool

	Unbalancing metrics.UnbalancingConfig
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.FetchWidth < 1 || c.CommitWidth < 1 {
		return fmt.Errorf("pipeline: fetch/commit width must be positive")
	}
	if c.NumClusters < 1 {
		return fmt.Errorf("pipeline: NumClusters %d < 1", c.NumClusters)
	}
	if c.WSRS && c.NumClusters != alloc.NumClusters {
		return fmt.Errorf("pipeline: WSRS placement rule is defined for %d clusters", alloc.NumClusters)
	}
	if c.ROBSize < c.FetchWidth {
		return fmt.Errorf("pipeline: ROB smaller than fetch width")
	}
	if c.ClusterConfigs != nil && len(c.ClusterConfigs) != c.NumClusters {
		return fmt.Errorf("pipeline: %d cluster configs for %d clusters",
			len(c.ClusterConfigs), c.NumClusters)
	}
	if c.ForwardDelay != nil {
		if len(c.ForwardDelay) != c.NumClusters {
			return fmt.Errorf("pipeline: forward-delay matrix has %d rows for %d clusters",
				len(c.ForwardDelay), c.NumClusters)
		}
		for i, row := range c.ForwardDelay {
			if len(row) != c.NumClusters {
				return fmt.Errorf("pipeline: forward-delay row %d has %d entries", i, len(row))
			}
			if row[i] != 0 {
				return fmt.Errorf("pipeline: intra-cluster forwarding delay must be 0 (cluster %d)", i)
			}
		}
	}
	for _, class := range [...]isa.Class{isa.ClassALU, isa.ClassMul, isa.ClassDiv,
		isa.ClassLoad, isa.ClassStore, isa.ClassFP, isa.ClassFPDiv} {
		ok := false
		for i := 0; i < c.NumClusters; i++ {
			if c.clusterConfig(i).CanExecute(class) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("pipeline: no cluster can execute %v micro-ops", class)
		}
	}
	return c.Rename.Validate()
}

// clusterConfig returns cluster i's resource configuration.
func (c Config) clusterConfig(i int) cluster.Config {
	if c.ClusterConfigs != nil {
		return c.ClusterConfigs[i]
	}
	return c.Cluster
}

// clusterConfigs returns the per-cluster resource configurations,
// reusing buf when its capacity fits (the homogeneous case expands
// Cluster into one entry per cluster).
func (c Config) clusterConfigs(buf []cluster.Config) []cluster.Config {
	if c.ClusterConfigs != nil {
		return c.ClusterConfigs
	}
	out := growSlice(buf, c.NumClusters)
	for i := range out {
		out[i] = c.Cluster
	}
	return out
}

// RunOpts bounds a simulation.
type RunOpts struct {
	// WarmupInsts are committed before statistics collection starts
	// (caches, predictor and renamer state carry over).
	WarmupInsts uint64
	// MeasureInsts is the measured slice length; 0 runs to the end of
	// the trace.
	MeasureInsts uint64
	// StallLimit is the forward-progress watchdog window: the run
	// fails with a check.Violation (checker "watchdog") and a
	// diagnostic dump when no µop commits for this many cycles (0
	// uses a generous default).
	StallLimit int64
	// Probe is the optional observability sink (nil disables all
	// probing; the hot loop then only pays nil checks). A probe must
	// not be shared between concurrent runs.
	Probe *probe.Probe

	// Activity is the optional dynamic activity-counter block (nil
	// disables it, same discipline as Probe): the engine counts
	// register-file port accesses per subset, monitored wake-up
	// broadcasts and bypass drives per cluster, bypass consumptions,
	// injected moves, renames and free-list pressure into it. Counters
	// are reset at the warmup boundary so they cover the measured
	// slice. Counting is read-only observation: an instrumented run is
	// cycle-identical to a plain one.
	Activity *telemetry.Activity

	// Check attaches the self-checking layer (nil disables it): the
	// co-simulation oracle and per-commit legality checks run at
	// every retirement, the structural audits at the checker's
	// cadence. Checkers are read-only, so a checked run is
	// cycle-identical to an unchecked one. A Checker must not be
	// shared between concurrent runs.
	Check *check.Checker
	// MaxCycles fails the run with a "cycle-budget" violation once
	// the cycle counter reaches it (0 = unbounded).
	MaxCycles int64
	// Deadline fails the run with a "time-budget" violation once the
	// host wall clock passes it (zero = unbounded). Checked every
	// 4096 cycles, so runs with a deadline remain deterministic in
	// simulated behavior — only the abort point depends on the host.
	Deadline time.Time
	// Cancel aborts the run with ErrCanceled once the channel closes
	// (nil = never). Polled at the Deadline cadence (every 4096
	// cycles), so an in-flight simulation stops within microseconds of
	// cancellation without the hot loop paying a per-cycle check.
	Cancel <-chan struct{}
}

// ErrCanceled is the error of a run aborted through RunOpts.Cancel.
// It wraps context.Canceled so callers can errors.Is against either.
var ErrCanceled = fmt.Errorf("pipeline: run canceled: %w", context.Canceled)

// Result reports one simulation run. All counters cover the measured
// slice only (post-warmup).
type Result struct {
	Name   string
	Cycles int64
	Insts  uint64
	Uops   uint64

	IPC    float64
	UopIPC float64

	CondBranches   uint64
	Mispredicts    uint64
	MispredictRate float64
	Traps          uint64

	// Dispatch stall breakdown, in dispatch-slot-cycles.
	StallRedirect uint64 // waiting on mispredict/trap redirect
	StallRename   uint64 // no free destination register
	StallWindow   uint64 // ROB / cluster window / IQ full

	InjectedMoves uint64
	// Resteers counts workaround-(a) allocation re-steers.
	Resteers      uint64
	StoreForwards uint64

	Mem mem.Stats

	UnbalancingDegree float64
	ClusterSpread     float64
	ClusterLoads      []uint64

	// PerThreadInsts breaks Insts down by SMT context.
	PerThreadInsts []uint64

	// Stalls is the commit-slot CPI stall stack of the measured
	// slice, filled only when the run was probed with stall
	// accounting enabled (RunOpts.Probe with Options.Stalls); nil
	// otherwise. The accounting invariant holds: Stalls.Committed
	// (== Uops) plus the attributed bubbles equal Cycles x
	// CommitWidth.
	Stalls *probe.StallStack

	// Activity echoes RunOpts.Activity when telemetry was enabled
	// (nil otherwise): the measured slice's dynamic event counts,
	// ready to be priced by a telemetry.EnergyModel.
	Activity *telemetry.Activity
}

type regInfo struct {
	readyAt  int64
	producer int32 // producing cluster; -1 = architectural (no forward cost)
	// producerRob is the ROB index of the in-flight producer (-1 for
	// architectural state). Only meaningful while readyAt is in the
	// future — the producer cannot have committed then — and used by
	// the stall-stack attribution to chase dependence chains.
	producerRob int32
	// consHead chains the not-yet-issued consumers waiting on this
	// register (encoded robIndex<<1 | operandSide, -1 = none); the
	// producer's issue walks the chain instead of every consumer
	// polling every cycle. The chain is an acceleration structure
	// only: readyAt/producer keep their polling semantics for the
	// observation-side consumers (stall attribution, telemetry).
	consHead int32
}

type robEntry struct {
	m        trace.MicroOp
	tid      int
	cluster  int
	swapped  bool
	srcPhys  [2]rename.PhysReg
	dstPhys  rename.PhysReg
	prevPhys rename.PhysReg
	memSeq   int64 // -1 when not a memory op
	issued   bool
	doneAt   int64
	mispred  bool
	synth    bool // injected deadlock-workaround move
	l1Miss   bool // load that went past the L1 (set at issue)
	prec     *probe.UopRecord
}

// threadState is the per-SMT-context front-end state. The lookahead
// µop and its allocation decision are held by value: boxing them per
// µop used to be nearly all of the simulator's heap traffic.
type threadState struct {
	src        trace.Reader
	pending    trace.MicroOp
	pendDec    alloc.Decision
	hasPending bool
	hasDec     bool
	srcDone    bool

	fetchResumeAt   int64
	pendingRedirect int
	pendingTrap     int
	// fetchedAt stamps when the current pending µop entered the
	// lookahead buffer; resumeTrap records whether fetchResumeAt was
	// set by a trap (vs a mispredict) for stall attribution.
	fetchedAt  int64
	resumeTrap bool

	// Per-thread in-order memory address computation (§5.2); threads
	// have private address spaces and do not order against each other.
	nextMemSeq   int64
	nextMemIssue int64

	insts uint64
}

func (t *threadState) drained() bool { return t.srcDone && !t.hasPending }

// robSched is one ROB entry's wake-up state: wait counts operands
// whose producer has not issued yet, ready is the max availability
// cycle over operands whose producer is known. An entry is eligible
// for selection once wait == 0 and ready <= cycle.
//
// memSeq, tid and class mirror the robEntry so the memory-order gate
// and the select scan can decide eligibility (operands, memory
// ordering, divider parity, scoreboard) from this 24-byte record alone
// — the 10x larger ROB entry is only touched for the <= width entries
// that actually issue.
type robSched struct {
	ready  int64
	memSeq int64 // -1 when not a memory op
	wait   int16
	tid    uint8
	class  uint8
}

type engine struct {
	cfg  Config
	ccfg []cluster.Config
	// ccfgBuf is the engine-owned backing for ccfg in the homogeneous
	// case; heterogeneous configurations alias the caller's
	// ClusterConfigs slice, which must never be written through.
	ccfgBuf []cluster.Config
	pol     alloc.Policy
	ren     *rename.Renamer
	bp      bpred.Predictor
	hi      *mem.Hierarchy
	sb      []*cluster.Scoreboard

	rob      []robEntry
	robHead  int
	robTail  int
	robCount int

	// Hot per-entry scheduling state, kept out of the fat ROB entries:
	// robSched packs the unissued-producer count and the max operand
	// availability cycle into one cache line access per entry; robLink
	// holds the per-operand-side next pointer of the regInfo consumer
	// chains.
	robSched []robSched
	robLink  [][2]int32

	// iq holds, per cluster in age order, only the entries whose
	// wake-up gate is open (wait == 0) and, for memory µops, whose
	// memory-order gate is open too (memSeq == the context's
	// nextMemIssue): entries with unissued producers are parked in the
	// consumer chains and re-enter via woken, memory µops behind an
	// older unissued one are parked in memPark, so the select scan
	// never visits either. iqLen is the total scheduler occupancy
	// (scanned + parked) that dispatch stalls against and telemetry
	// samples.
	iq    [][]int32
	iqLen []int32
	// woken buffers entries whose wait count hit zero during this
	// cycle's broadcast walks; they merge into iq after the scan (a
	// freshly woken entry can never issue in the broadcasting cycle,
	// so deferring the insert is unobservable).
	woken []int32
	// memPark is the memory-order gate (§5.2: addresses are computed
	// in program order within a context): context tid's woken memory
	// µop with sequence number s waits in slot tid*len(rob) +
	// s%len(rob) (ROB index, -1 = empty) until the issue of memory µop
	// s-1 releases it into the scan. A context's unissued memory µops
	// occupy distinct ROB entries, so their slots never collide.
	memPark  []int32
	inflight []int

	intReady []regInfo
	fpReady  []regInfo

	// stores holds ROB indices of in-flight stores in age order,
	// consumed from storesHead (commit) and appended at the tail
	// (dispatch); appends compact the drained prefix in place instead
	// of reallocating, so the backing array converges on the maximum
	// in-flight store count.
	stores     []int
	storesHead int

	// sharedDivBusy is the per-cluster-pair divider occupancy when
	// SharedDividers is enabled (§4.1).
	sharedDivBusy []int64

	th []threadState

	// resteerBuf is scratch for the deadlock-avoidance re-steer
	// enumeration (workaround (a) of §2.3).
	resteerBuf [alloc.NumClusters]alloc.Decision

	cycle int64

	load *metrics.ClusterLoad
	fail error

	// chk is the optional self-checking layer (nil = off, costing
	// the hot loop one nil check per stage); corruptNext arms the
	// stream-corruption fault for the next retirement.
	chk         *check.Checker
	corruptNext bool

	// prb is the optional observability sink (nil = all probing
	// off); evOn/stOn/occOn cache the per-feature switches so each
	// stage checks a single boolean.
	prb   *probe.Probe
	evOn  bool
	stOn  bool
	occOn bool

	// act is the optional activity-counter block (nil = telemetry
	// off); actOn caches the switch. monitors is the broadcast
	// visibility table [subset][cluster] -> monitored operand sides,
	// built once at engine setup when telemetry is on.
	act      *telemetry.Activity
	actOn    bool
	monitors [][]uint8
	// monNS/monNC/monWSRS key the cached monitors table.
	monNS, monNC int
	monWSRS      bool

	insts, uops     uint64
	condBr, mispred uint64
	traps           uint64
	stallRedirect   uint64
	stallRename     uint64
	stallWindow     uint64
	forwards        uint64
	moves           uint64
	resteers        uint64

	// stall is the dispatch stall charged this cycle (none when
	// dispatch did not stall); a next-event skip repeats it for every
	// skipped cycle.
	stall dispStall
}

// stallKind names the counter a dispatch stall is charged to.
type stallKind uint8

const (
	stallNone     stallKind = iota
	stallRedirect           // every context waits on a redirect
	stallROB                // window: reorder buffer full
	stallCluster            // window: cluster in-flight limit
	stallIQ                 // window: cluster issue queue full
	stallFreeList           // destination subset has no free register
)

// dispStall is one cycle's dispatch-stall charge: slots dispatch slots
// of the given kind (subset names the free list for stallFreeList).
type dispStall struct {
	kind   stallKind
	subset int
	slots  uint64
}

// Run simulates the trace src on configuration cfg using allocation
// policy pol and returns the measured-slice statistics.
func Run(cfg Config, pol alloc.Policy, src trace.Reader, opts RunOpts) (Result, error) {
	return RunSMT(cfg, pol, []trace.Reader{src}, opts)
}

// enginePool recycles engines across runs: a pooled engine's Reset
// reuses its arenas (ROB, issue queues, register scoreboard, renamer,
// predictor tables, cache tag arrays), so a grid of N cells allocates
// like one cell once the pool is warm.
var enginePool = sync.Pool{New: func() any { return new(engine) }}

// RunSMT simulates one trace per SMT context. len(srcs) must match
// cfg.Threads (or 1 with Threads unset).
func RunSMT(cfg Config, pol alloc.Policy, srcs []trace.Reader, opts RunOpts) (Result, error) {
	if cfg.Threads == 0 {
		cfg.Threads = 1
	}
	cfg.Rename.Threads = cfg.Threads
	if len(srcs) != cfg.Threads {
		return Result{}, fmt.Errorf("pipeline: %d traces for %d SMT contexts", len(srcs), cfg.Threads)
	}
	e := enginePool.Get().(*engine)
	if err := e.Reset(cfg, pol, srcs, opts); err != nil {
		return Result{}, err
	}
	res, err := e.run(opts)
	if err == nil {
		// Failed runs may leave their error state (checker violations,
		// diagnostic dumps) referencing engine internals; only clean
		// engines re-enter the pool.
		e.scrub()
		enginePool.Put(e)
	}
	return res, err
}

// Reset prepares the engine to simulate a fresh run of cfg/pol/srcs,
// reusing every internal allocation whose capacity still fits. A reset
// engine is indistinguishable from a newly constructed one: simulated
// behavior is a pure function of (cfg, pol, srcs, opts), never of the
// engine's history.
func (e *engine) Reset(cfg Config, pol alloc.Policy, srcs []trace.Reader, opts RunOpts) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	e.cfg = cfg
	e.ccfg = cfg.clusterConfigs(e.ccfgBuf)
	if cfg.ClusterConfigs == nil {
		e.ccfgBuf = e.ccfg
	}
	e.pol = pol
	if e.ren == nil {
		ren, err := rename.New(cfg.Rename)
		if err != nil {
			return err
		}
		e.ren = ren
	} else if err := e.ren.Reset(cfg.Rename); err != nil {
		return err
	}
	if cfg.PerfectBP {
		o, ok := e.bp.(*bpred.Oracle)
		if !ok {
			o = &bpred.Oracle{}
		}
		o.Reset()
		e.bp = o
	} else {
		logSize := cfg.PredictorLogSize
		if logSize == 0 {
			logSize = 16
		}
		g, ok := e.bp.(*bpred.TwoBcGskew)
		if !ok || g.LogSize() != logSize {
			g = bpred.NewTwoBcGskew(logSize)
		} else {
			g.Reset()
		}
		e.bp = g
	}
	if e.hi == nil || e.hi.Config() != cfg.Mem {
		e.hi = mem.New(cfg.Mem)
	} else {
		e.hi.Reset()
	}
	if cap(e.sb) >= len(e.ccfg) {
		e.sb = e.sb[:len(e.ccfg)]
	} else {
		e.sb = make([]*cluster.Scoreboard, len(e.ccfg))
	}
	for i, cc := range e.ccfg {
		if e.sb[i] != nil {
			e.sb[i].Reset(cc)
		} else {
			e.sb[i] = cluster.NewScoreboard(cc)
		}
	}

	e.rob = growSlice(e.rob, cfg.ROBSize)
	clear(e.rob)
	e.robSched = growSlice(e.robSched, cfg.ROBSize)
	e.robLink = growSlice(e.robLink, cfg.ROBSize)
	e.robHead, e.robTail, e.robCount = 0, 0, 0

	e.iq = growSlice(e.iq, cfg.NumClusters)
	for c := range e.iq {
		if cap(e.iq[c]) < e.ccfg[c].IQSize {
			e.iq[c] = make([]int32, 0, e.ccfg[c].IQSize)
		}
		e.iq[c] = e.iq[c][:0]
	}
	e.iqLen = growSlice(e.iqLen, cfg.NumClusters)
	clear(e.iqLen)
	e.woken = e.woken[:0]
	e.memPark = growSlice(e.memPark, len(srcs)*cfg.ROBSize)
	for i := range e.memPark {
		e.memPark[i] = -1
	}
	e.inflight = growSlice(e.inflight, cfg.NumClusters)
	clear(e.inflight)

	e.intReady = growSlice(e.intReady, cfg.Rename.IntRegs)
	e.fpReady = growSlice(e.fpReady, cfg.Rename.FPRegs)
	for i := range e.intReady {
		e.intReady[i] = regInfo{producer: -1, producerRob: -1, consHead: -1}
	}
	for i := range e.fpReady {
		e.fpReady[i] = regInfo{producer: -1, producerRob: -1, consHead: -1}
	}
	e.stores = e.stores[:0]
	e.storesHead = 0
	e.sharedDivBusy = growSlice(e.sharedDivBusy, (cfg.NumClusters+1)/2)
	clear(e.sharedDivBusy)

	e.th = growSlice(e.th, len(srcs))
	for tid, src := range srcs {
		e.th[tid] = threadState{
			src:             src,
			pendingRedirect: -1,
			pendingTrap:     -1,
		}
	}

	ub := cfg.Unbalancing
	if ub.GroupSize == 0 {
		ub = metrics.DefaultUnbalancing()
		ub.Clusters = cfg.NumClusters
	}
	if e.load == nil || e.load.Config() != ub {
		e.load = metrics.NewClusterLoad(ub)
	} else {
		e.load.Reset()
	}

	e.cycle = 0
	e.fail = nil
	e.chk = opts.Check
	e.corruptNext = false
	e.prb, e.evOn, e.stOn, e.occOn = nil, false, false, false
	if p := opts.Probe; p != nil {
		e.prb = p
		e.evOn = p.Opt.Events
		e.stOn = p.Opt.Stalls
		e.occOn = p.Opt.Occupancy
		p.Stall.Width = cfg.CommitWidth
	}
	e.act, e.actOn = nil, false
	if a := opts.Activity; a != nil {
		e.act = a
		e.actOn = true
		// The monitor table depends only on the machine geometry;
		// engines cycling through the same configuration reuse it.
		if e.monitors == nil || e.monNS != cfg.Rename.NumSubsets ||
			e.monNC != cfg.NumClusters || e.monWSRS != cfg.WSRS {
			e.monitors = telemetry.MonitorCounts(cfg.Rename.NumSubsets, cfg.NumClusters, cfg.WSRS)
			e.monNS, e.monNC, e.monWSRS = cfg.Rename.NumSubsets, cfg.NumClusters, cfg.WSRS
		}
	}
	e.insts, e.uops = 0, 0
	e.condBr, e.mispred = 0, 0
	e.traps = 0
	e.stallRedirect, e.stallRename, e.stallWindow = 0, 0, 0
	e.forwards, e.moves, e.resteers = 0, 0, 0
	e.stall = dispStall{}
	return nil
}

// scrub drops the engine's references to run-owned objects (trace
// readers, probe, checker, activity block, policy, retired-µop
// records) so a pooled engine cannot retain them.
func (e *engine) scrub() {
	clear(e.rob)
	for i := range e.th {
		e.th[i] = threadState{}
	}
	e.pol = nil
	e.chk = nil
	e.prb = nil
	e.act = nil
}

// growSlice returns s resized to length n, reusing its backing array
// when the capacity suffices. Newly exposed elements are NOT cleared.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (e *engine) run(opts RunOpts) (Result, error) {
	stallLimit := opts.StallLimit
	if stallLimit <= 0 {
		stallLimit = 200_000
	}
	target := uint64(math.MaxUint64)
	if opts.MeasureInsts > 0 {
		target = opts.WarmupInsts + opts.MeasureInsts
	}
	deadlineOn := !opts.Deadline.IsZero()

	var base Result
	var baseCycle int64
	baseTh := make([]uint64, len(e.th))
	warmed := opts.WarmupInsts == 0

	lastCommitCycle := int64(0)
	for {
		allDrained := true
		for i := range e.th {
			if !e.th[i].drained() {
				allDrained = false
				break
			}
		}
		if allDrained && e.robCount == 0 {
			break
		}
		if e.insts >= target {
			break
		}
		e.cycle++
		e.ren.BeginCycle()
		if e.chk != nil {
			e.chk.TryInject(e.cycle, (*injectTarget)(e))
		}
		n := e.commit()
		if e.fail != nil {
			return Result{}, e.fail
		}
		if n > 0 {
			lastCommitCycle = e.cycle
		}
		if e.stOn {
			e.accountCommit(n)
		}
		if !warmed && e.insts >= opts.WarmupInsts {
			warmed = true
			baseCycle = e.cycle
			base = e.snapshot()
			for i := range e.th {
				baseTh[i] = e.th[i].insts
			}
			e.load.Reset()
			if e.prb != nil {
				// The probe covers exactly the measured slice: the
				// boundary cycle is excluded from Cycles above, so
				// its attribution is dropped with the warmup's.
				e.prb.Reset()
			}
			if e.actOn {
				// Same boundary discipline as the probe.
				e.act.Reset()
			}
		}
		issued, next := e.issue()
		dispatched := e.dispatch()
		if e.fail != nil {
			return Result{}, e.fail
		}
		if e.chk != nil && e.chk.AuditDue(e.cycle) {
			if err := e.chk.Audit(e.cycle, (*auditState)(e)); err != nil {
				return Result{}, err
			}
		}
		if e.occOn && warmed && e.cycle > baseCycle {
			e.sampleOccupancy(1)
		}
		if e.cycle-lastCommitCycle > stallLimit {
			return Result{}, e.watchdogViolation(stallLimit)
		}
		if opts.MaxCycles > 0 && e.cycle >= opts.MaxCycles {
			return Result{}, &check.Violation{Checker: "cycle-budget", Cycle: e.cycle,
				Summary: fmt.Sprintf("cycle budget of %d exhausted with %d instructions committed",
					opts.MaxCycles, e.insts)}
		}
		if deadlineOn && e.cycle&4095 == 0 && time.Now().After(opts.Deadline) {
			return Result{}, &check.Violation{Checker: "time-budget", Cycle: e.cycle,
				Summary: fmt.Sprintf("wall-clock budget exhausted with %d instructions committed", e.insts)}
		}
		if opts.Cancel != nil && e.cycle&4095 == 0 {
			select {
			case <-opts.Cancel:
				return Result{}, ErrCanceled
			default:
			}
		}
		if n == 0 && issued == 0 && !dispatched && len(e.th) == 1 && e.ren.Quiescent() {
			// Nothing changed this cycle, so nothing will until the
			// next event: jump to the cycle before it. The limits
			// checked above are events too, so each still fires at
			// its exact cycle. SMT fetch rotates over the contexts by
			// cycle, and an over-pick renamer holding registers moves
			// them every cycle, so both step cycle by cycle.
			next = min(next, e.nextEvent(), lastCommitCycle+stallLimit+1, (e.cycle|4095)+1)
			if opts.MaxCycles > 0 {
				next = min(next, opts.MaxCycles)
			}
			if e.chk != nil {
				next = min(next, e.chk.NextDue(e.cycle))
			}
			e.skipIdle(next, e.occOn && warmed)
		}
	}

	if !warmed {
		return Result{}, fmt.Errorf("pipeline: trace ended during warmup (%d of %d instructions)",
			e.insts, opts.WarmupInsts)
	}

	cur := e.snapshot()
	res := Result{
		Name:              e.cfg.Name,
		Cycles:            e.cycle - baseCycle,
		Insts:             cur.Insts - base.Insts,
		Uops:              cur.Uops - base.Uops,
		CondBranches:      cur.CondBranches - base.CondBranches,
		Mispredicts:       cur.Mispredicts - base.Mispredicts,
		Traps:             cur.Traps - base.Traps,
		StallRedirect:     cur.StallRedirect - base.StallRedirect,
		StallRename:       cur.StallRename - base.StallRename,
		StallWindow:       cur.StallWindow - base.StallWindow,
		InjectedMoves:     cur.InjectedMoves - base.InjectedMoves,
		Resteers:          cur.Resteers - base.Resteers,
		StoreForwards:     cur.StoreForwards - base.StoreForwards,
		Mem:               memStatsDiff(e.hi.Stats, base.Mem),
		UnbalancingDegree: e.load.Degree(),
		ClusterSpread:     e.load.Spread(),
		ClusterLoads:      append([]uint64(nil), e.load.TotalPerCluster...),
	}
	for i := range e.th {
		res.PerThreadInsts = append(res.PerThreadInsts, e.th[i].insts-baseTh[i])
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Insts) / float64(res.Cycles)
		res.UopIPC = float64(res.Uops) / float64(res.Cycles)
	}
	if res.CondBranches > 0 {
		res.MispredictRate = float64(res.Mispredicts) / float64(res.CondBranches)
	}
	if e.stOn {
		s := e.prb.Stall
		res.Stalls = &s
	}
	if e.actOn {
		res.Activity = e.act
	}
	return res, nil
}

// accountCommit attributes this cycle's commit slots for the CPI
// stall stack: n slots retired a µop, the remaining CommitWidth-n are
// bubbles blamed on a single cause. Pure observation — it must not
// mutate any simulation state.
func (e *engine) accountCommit(n int) {
	bubbles := e.cfg.CommitWidth - n
	var cause probe.Cause
	if bubbles > 0 {
		cause, _ = e.blameCommit(e.cycle)
	}
	e.prb.Stall.Record(n, bubbles, cause)
}

// blameCommit decides why the commit stream runs dry at cycle now, and
// until which cycle that answer holds if the machine does not change
// (the horizon an idle-cycle skip may charge in bulk). With µops in
// flight the oldest one is the blocker: not-yet-ready operands are
// chased to cross-cluster forwarding, a missing load, or a plain
// dependence; an issued head is executing. With an empty window the
// front end is to blame: mispredict/trap refill, a register-subset
// free-list stall, the end-of-trace drain, or other fill latency.
func (e *engine) blameCommit(now int64) (probe.Cause, int64) {
	if e.robCount > 0 {
		ent := &e.rob[e.robHead]
		if ent.issued {
			if ent.l1Miss {
				return probe.CauseCacheMiss, notReady
			}
			return probe.CauseExecLat, notReady
		}
		for i := 0; i < ent.m.NSrc; i++ {
			cl := ent.m.Src[i].Class
			avail := e.availAt(cl, ent.srcPhys[i], ent.cluster)
			if avail <= now {
				continue
			}
			ri := e.readyInfo(cl, ent.srcPhys[i])
			if ri.readyAt <= now {
				// Ready at the producer; the consumer only waits for
				// the cross-cluster forwarding network.
				return probe.CauseXClusterForward, avail
			}
			if ri.producerRob >= 0 {
				if p := &e.rob[ri.producerRob]; p.issued && p.l1Miss {
					return probe.CauseCacheMiss, ri.readyAt
				}
			}
			return probe.CauseExecDep, ri.readyAt
		}
		if ent.memSeq >= 0 && ent.memSeq != e.th[ent.tid].nextMemIssue {
			return probe.CauseMemOrder, notReady
		}
		return probe.CauseIssueWait, notReady
	}
	// Empty window: find a front-end reason across the contexts.
	live := false
	for i := range e.th {
		t := &e.th[i]
		if t.drained() {
			continue
		}
		live = true
		if t.fetchResumeAt > now {
			if t.resumeTrap {
				return probe.CauseTrap, t.fetchResumeAt
			}
			return probe.CauseMispredict, t.fetchResumeAt
		}
	}
	if !live {
		return probe.CauseDrain, notReady
	}
	for i := range e.th {
		t := &e.th[i]
		if t.drained() || !t.hasPending || !t.hasDec || !t.pending.HasDst {
			continue
		}
		subset := 0
		if e.cfg.Rename.NumSubsets > 1 {
			subset = t.pendDec.Cluster
		}
		if !e.ren.CanRename(t.pending.Dst.Class, subset) {
			return probe.CauseFreeList, notReady
		}
	}
	return probe.CauseFrontend, notReady
}

// nextEvent returns the earliest cycle after an idle one at which
// commit or dispatch could act without an issue happening first: the
// window head's completion, or a context's fetch resumption after a
// redirect. (The issue scan reports its own earliest ready cycle.)
func (e *engine) nextEvent() int64 {
	next := int64(notReady)
	if e.robCount > 0 {
		if h := &e.rob[e.robHead]; h.issued {
			next = h.doneAt
		}
	}
	for i := range e.th {
		if t := &e.th[i]; !t.drained() && t.fetchResumeAt > e.cycle {
			next = min(next, t.fetchResumeAt)
		}
	}
	return next
}

// skipIdle jumps from an idle cycle — one in which nothing committed,
// issued or dispatched — to the cycle before next, the earliest cycle
// at which anything can happen. Every cycle in between would repeat
// the idle one, so each is charged in bulk exactly as stepping would
// charge it: the dispatch stall, the stall-stack bubbles (the jump
// stops where their cause changes) and, when sample is set, the
// occupancy samples.
func (e *engine) skipIdle(next int64, sample bool) {
	var cause probe.Cause
	if e.stOn {
		var until int64
		cause, until = e.blameCommit(e.cycle + 1)
		next = min(next, until)
	}
	k := next - 1 - e.cycle
	if k <= 0 {
		return
	}
	n := uint64(k)
	if st := e.stall; st.kind != stallNone {
		e.chargeStall(st.kind, st.subset, n*st.slots)
	}
	if e.stOn {
		e.prb.Stall.RecordIdle(cause, n)
	}
	if sample {
		e.sampleOccupancy(n)
	}
	e.cycle += k
}

// sampleOccupancy records the cycle-end occupancy of the queueing
// structures (window, per-cluster issue queues, per-subset free
// lists), weighted by the n cycles it held for.
func (e *engine) sampleOccupancy(n uint64) {
	occ := &e.prb.Occ
	occ.ROB.AddN(e.robCount, n)
	for c := 0; c < e.cfg.NumClusters; c++ {
		occ.SampleIQ(c, int(e.iqLen[c]), n)
	}
	for s := 0; s < e.cfg.Rename.NumSubsets; s++ {
		occ.SampleIntFree(s, e.ren.FreeCount(isa.RegInt, s), n)
		occ.SampleFPFree(s, e.ren.FreeCount(isa.RegFP, s), n)
	}
}

// memStatsDiff subtracts two cumulative memory-stat snapshots.
func memStatsDiff(cur, base mem.Stats) mem.Stats {
	return mem.Stats{
		Loads:         cur.Loads - base.Loads,
		Stores:        cur.Stores - base.Stores,
		L1Hits:        cur.L1Hits - base.L1Hits,
		L1Misses:      cur.L1Misses - base.L1Misses,
		L2Hits:        cur.L2Hits - base.L2Hits,
		L2Misses:      cur.L2Misses - base.L2Misses,
		Writebacks:    cur.Writebacks - base.Writebacks,
		BusBusyCycles: cur.BusBusyCycles - base.BusBusyCycles,
	}
}

// snapshot captures the raw counters (for warmup differencing).
func (e *engine) snapshot() Result {
	return Result{
		Insts:         e.insts,
		Uops:          e.uops,
		CondBranches:  e.condBr,
		Mispredicts:   e.mispred,
		Traps:         e.traps,
		StallRedirect: e.stallRedirect,
		StallRename:   e.stallRename,
		StallWindow:   e.stallWindow,
		InjectedMoves: e.moves,
		Resteers:      e.resteers,
		StoreForwards: e.forwards,
		Mem:           e.hi.Stats,
	}
}

func (e *engine) readyInfo(c isa.RegClass, p rename.PhysReg) *regInfo {
	if c == isa.RegInt {
		return &e.intReady[p]
	}
	return &e.fpReady[p]
}

// availAt returns the cycle at which operand (class, phys) is usable
// by a consumer on cluster c, accounting for cross-cluster forwarding
// (the uniform XClusterDelay, or the §4.3.1 delay matrix when set).
func (e *engine) availAt(cl isa.RegClass, p rename.PhysReg, c int) int64 {
	return e.availFrom(e.readyInfo(cl, p), c)
}

// availFrom is availAt over an already-resolved register entry.
func (e *engine) availFrom(ri *regInfo, c int) int64 {
	t := ri.readyAt
	if ri.producer >= 0 && int(ri.producer) != c {
		if e.cfg.ForwardDelay != nil {
			t += int64(e.cfg.ForwardDelay[ri.producer][c])
		} else {
			t += int64(e.cfg.XClusterDelay)
		}
	}
	return t
}

// fetchNext returns thread tid's next µop to dispatch, using a
// one-entry lookahead buffer so a stalled µop keeps its allocation
// decision. The returned pointers alias the thread's lookahead slot
// (valid until the µop is consumed); nothing is heap-allocated.
func (e *engine) fetchNext(tid int) (*trace.MicroOp, *alloc.Decision) {
	t := &e.th[tid]
	if !t.hasPending {
		if t.srcDone {
			return nil, nil
		}
		m, ok := t.src.Next()
		if !ok {
			t.srcDone = true
			return nil, nil
		}
		if isa.IsMem(m.Op) && tid > 0 {
			// Private per-context address spaces.
			m.Addr += uint64(tid) << 40
		}
		t.pending = m
		t.hasPending = true
		t.hasDec = false
		t.fetchedAt = e.cycle
	}
	if !t.hasDec {
		var subsets [2]int
		for i := 0; i < t.pending.NSrc; i++ {
			subsets[i] = e.ren.SubsetOfLogicalT(tid, t.pending.Src[i])
		}
		d := e.pol.Allocate(&t.pending, subsets, e.inflight)
		if e.cfg.WSRS && !alloc.WSRSValid(&t.pending, subsets, d.Cluster, d.Swapped) {
			e.fail = &check.Violation{Checker: "rs-legal", Cycle: e.cycle,
				Summary: fmt.Sprintf("policy %s violated read specialization: op=%v subsets=%v decision=%+v",
					e.pol.Name(), t.pending.Op, subsets, d)}
			return nil, nil
		}
		t.pendDec = d
		t.hasDec = true
	}
	return &t.pending, &t.pendDec
}

// fetchable reports whether thread tid can deliver µops this cycle.
func (e *engine) fetchable(tid int) bool {
	t := &e.th[tid]
	return t.pendingRedirect < 0 && t.pendingTrap < 0 &&
		e.cycle >= t.fetchResumeAt && !t.drained()
}

// pickThread rotates fine-grained SMT fetch across fetchable threads.
func (e *engine) pickThread(slot int) int {
	n := len(e.th)
	for i := 0; i < n; i++ {
		tid := (int(e.cycle) + slot + i) % n
		if e.fetchable(tid) {
			return tid
		}
	}
	return -1
}

// dispatch renames and dispatches up to FetchWidth µops and reports
// whether it changed any machine state (dispatched a µop, injected a
// move or re-steered one); the cycle's stall, if any, is left in
// e.stall.
func (e *engine) dispatch() (progress bool) {
	e.stall = dispStall{}
	for slot := 0; slot < e.cfg.FetchWidth; slot++ {
		tid := e.pickThread(slot)
		if tid < 0 {
			// All contexts stalled on redirects or drained.
			for i := range e.th {
				if !e.th[i].drained() {
					e.chargeStall(stallRedirect, 0, uint64(e.cfg.FetchWidth-slot))
					return progress
				}
			}
			return progress
		}
		t := &e.th[tid]
		m, dec := e.fetchNext(tid)
		if e.fail != nil {
			return progress
		}
		if m == nil {
			// This context just drained; other contexts may still
			// have µops for the remaining slots.
			continue
		}
		cl := dec.Cluster

		if m.Class != isa.ClassNop && !e.ccfg[cl].CanExecute(m.Class) {
			e.fail = fmt.Errorf("pipeline: policy %s sent a %v micro-op to cluster %d, which cannot execute it",
				e.pol.Name(), m.Class, cl)
			return progress
		}

		// Structural checks.
		var full stallKind
		switch {
		case e.robCount >= e.cfg.ROBSize:
			full = stallROB
		case e.inflight[cl] >= e.ccfg[cl].MaxInflight:
			full = stallCluster
		case m.Class != isa.ClassNop && int(e.iqLen[cl]) >= e.ccfg[cl].IQSize:
			full = stallIQ
		}
		if full != stallNone {
			e.chargeStall(full, 0, uint64(e.cfg.FetchWidth-slot))
			return progress
		}

		// Capture source physical registers before renaming the
		// destination (an instruction may read and write the same
		// logical register); earlier µops of the group have already
		// updated the map table — dependency propagation.
		var srcs [2]rename.PhysReg
		for i := 0; i < m.NSrc; i++ {
			srcs[i] = e.ren.LookupT(tid, m.Src[i])
		}

		// Rename the destination into the cluster's subset (write
		// specialization); conventional machines use subset 0.
		subset := 0
		if e.cfg.Rename.NumSubsets > 1 {
			subset = cl
		}
		var dst, prev rename.PhysReg = rename.None, rename.None
		if m.HasDst {
			if !e.ren.CanRename(m.Dst.Class, subset) && e.cfg.DeadlockAvoidAlloc {
				// Workaround (a): re-steer to an allowed cluster
				// whose subset can still rename.
				if alt, ok := e.resteer(tid, m, cl); ok {
					progress = true
					cl = alt
					t.pendDec.Cluster = alt
					if e.cfg.Rename.NumSubsets > 1 {
						subset = cl
					}
					e.resteers++
				}
			}
			if !e.ren.CanRename(m.Dst.Class, subset) {
				if e.cfg.DeadlockMoves && e.ren.Deadlocked(m.Dst.Class, subset) {
					if e.injectMove(m.Dst.Class, subset) {
						progress = true
						continue // the move consumed this dispatch slot
					}
				}
				e.chargeStall(stallFreeList, subset, uint64(e.cfg.FetchWidth-slot))
				return progress
			}
			var ok bool
			dst, prev, ok = e.ren.RenameT(tid, m.Dst, subset)
			if !ok {
				e.chargeStall(stallFreeList, subset, uint64(e.cfg.FetchWidth-slot))
				return progress
			}
			if e.actOn {
				e.act.AddRename(subset)
			}
		}

		idx := e.robAlloc()
		ent := &e.rob[idx]
		*ent = robEntry{
			m:        *m,
			tid:      tid,
			cluster:  cl,
			swapped:  dec.Swapped,
			srcPhys:  srcs,
			dstPhys:  dst,
			prevPhys: prev,
			memSeq:   -1,
			doneAt:   notReady,
		}
		// Wake-up bookkeeping: operands with an unissued producer join
		// that register's consumer chain (the producer's issue will
		// broadcast to them); operands already produced contribute
		// their availability cycle directly.
		sched := &e.robSched[idx]
		*sched = robSched{memSeq: -1, tid: uint8(tid), class: uint8(m.Class)}
		for i := 0; i < m.NSrc; i++ {
			scl := m.Src[i].Class
			ri := e.readyInfo(scl, srcs[i])
			if ri.readyAt == notReady {
				e.robLink[idx][i] = ri.consHead
				ri.consHead = int32(idx<<1 | i)
				sched.wait++
			} else if a := e.availFrom(ri, cl); a > sched.ready {
				sched.ready = a
			}
		}
		if m.HasDst {
			*e.readyInfo(m.Dst.Class, dst) = regInfo{readyAt: notReady, producer: int32(cl), producerRob: int32(idx), consHead: -1}
		}
		if e.evOn {
			r := e.prb.NewRecord()
			*r = probe.UopRecord{
				Seq: m.Seq, InstSeq: m.InstSeq, Tid: tid, PC: m.PC,
				Op: m.Op, Class: m.Class, Cluster: cl, Subset: subset,
				Fetch: t.fetchedAt, Dispatch: e.cycle,
				Issue: notReady, Done: notReady,
			}
			ent.prec = r
		}
		if isa.IsMem(m.Op) {
			ent.memSeq = t.nextMemSeq
			sched.memSeq = t.nextMemSeq
			t.nextMemSeq++
			if m.Class == isa.ClassStore {
				if len(e.stores) == cap(e.stores) && e.storesHead > 0 {
					n := copy(e.stores, e.stores[e.storesHead:])
					e.stores = e.stores[:n]
					e.storesHead = 0
				}
				e.stores = append(e.stores, idx)
			}
		}
		e.inflight[cl]++

		if m.IsCond {
			e.condBr++
			if o, isOracle := e.bp.(*bpred.Oracle); isOracle {
				o.SetNext(m.Taken)
			}
			pred := e.bp.Predict(m.PC)
			e.bp.Update(m.PC, m.Taken)
			if pred != m.Taken {
				e.mispred++
				ent.mispred = true
				// Only this context stalls; others keep fetching.
				t.pendingRedirect = idx
			}
		}
		if m.Trap {
			e.traps++
			t.pendingTrap = idx
		}

		if m.Class == isa.ClassNop {
			// Window-management and nop µops complete at dispatch.
			ent.issued = true
			ent.doneAt = e.cycle
			if ent.prec != nil {
				ent.prec.Issue = e.cycle
				ent.prec.Done = e.cycle
			}
		} else {
			e.iqLen[cl]++
			// Entries waiting on a producer are parked in the
			// consumer chains and re-enter through the broadcast
			// walk.
			if sched.wait == 0 {
				e.admit(int32(idx))
			}
		}

		t.hasPending, t.hasDec = false, false
		progress = true
	}
	return progress
}

// chargeStall charges n dispatch slots to a stall counter — the
// pipeline's aggregate, the probe's refinement and telemetry's
// free-list pressure — and records the charge as this cycle's stall.
func (e *engine) chargeStall(kind stallKind, subset int, n uint64) {
	e.stall = dispStall{kind: kind, subset: subset, slots: n}
	switch kind {
	case stallRedirect:
		e.stallRedirect += n
		if e.stOn {
			e.prb.Disp.Redirect += n
		}
	case stallROB, stallCluster, stallIQ:
		e.stallWindow += n
		if e.stOn {
			switch kind {
			case stallROB:
				e.prb.Disp.ROBFull += n
			case stallCluster:
				e.prb.Disp.ClusterFull += n
			default:
				e.prb.Disp.IQFull += n
			}
		}
	case stallFreeList:
		e.stallRename += n
		if e.stOn {
			e.prb.Disp.AddFreeList(subset, int(n))
		}
		if e.actOn {
			e.act.AddFreeListStall(subset, n)
		}
	}
}

// resteer finds an alternative cluster for m whose register subset
// can still rename, honouring read specialization on WSRS machines
// and the cluster's executability otherwise. It prefers clusters
// other than the original choice.
func (e *engine) resteer(tid int, m *trace.MicroOp, orig int) (int, bool) {
	if e.cfg.WSRS {
		var subsets [2]int
		for i := 0; i < m.NSrc; i++ {
			subsets[i] = e.ren.SubsetOfLogicalT(tid, m.Src[i])
		}
		n := alloc.AllowedClustersInto(&e.resteerBuf, m, subsets, m.HWCommutable)
		for _, d := range e.resteerBuf[:n] {
			if d.Cluster != orig && e.ren.CanRename(m.Dst.Class, d.Cluster) &&
				e.ccfg[d.Cluster].CanExecute(m.Class) {
				return d.Cluster, true
			}
		}
		return 0, false
	}
	for c := 0; c < e.cfg.NumClusters; c++ {
		subset := 0
		if e.cfg.Rename.NumSubsets > 1 {
			subset = c
		}
		if c != orig && e.ren.CanRename(m.Dst.Class, subset) && e.ccfg[c].CanExecute(m.Class) {
			return c, true
		}
	}
	return 0, false
}

// injectMove applies the deadlock workaround: an architectural move
// re-mapping one logical register out of the saturated subset, charged
// as a dispatch slot. Registers an in-flight µop still refers to are
// not movable: a destination's value does not architecturally exist
// yet, and a waiting consumer's captured source would dangle once the
// register is freed and re-allocated (it would then wait on the wrong,
// possibly younger, producer — a deadlock). Returns false when no
// donor subset exists or every mapping is pinned that way; the
// workaround retries as in-flight µops drain.
func (e *engine) injectMove(c isa.RegClass, subset int) bool {
	_, _, ok := e.ren.InjectMoveAvoiding(c, subset, func(p rename.PhysReg) bool {
		for i := 0; i < e.robCount; i++ {
			ent := &e.rob[(e.robHead+i)%len(e.rob)]
			if ent.m.HasDst && ent.m.Dst.Class == c && ent.dstPhys == p {
				return true
			}
			if !ent.issued {
				for s := 0; s < ent.m.NSrc; s++ {
					if ent.m.Src[s].Class == c && ent.srcPhys[s] == p {
						return true
					}
				}
			}
		}
		return false
	})
	if ok {
		e.moves++
		if e.actOn {
			e.act.AddMove()
		}
		// The move changed operand subsets; allocation decisions taken
		// against the old map are stale (a WSRS placement may now be
		// read-illegal). Drop them so fetchNext re-allocates.
		for i := range e.th {
			e.th[i].hasDec = false
		}
	}
	return ok
}

func (e *engine) robAlloc() int {
	idx := e.robTail
	e.robTail = (e.robTail + 1) % len(e.rob)
	e.robCount++
	return idx
}

// issue scans each cluster's queue in age order, issuing up to
// IssueWidth ready µops and compacting the survivors in one pass (no
// per-issue copy of the queue tail). It returns the number of µops
// issued and the earliest later cycle at which a scanned entry could
// issue if nothing else changes: the smallest future ready cycle, or
// the next cycle when a ready entry was held back by its cluster's
// scoreboard or the shared divider.
func (e *engine) issue() (issued int, next int64) {
	cycle := e.cycle
	next = notReady
	sharedDiv := e.cfg.SharedDividers
	for c := 0; c < e.cfg.NumClusters; c++ {
		q := e.iq[c]
		width := e.ccfg[c].IssueWidth
		sb := e.sb[c]
		// The scan stops as soon as the cluster's issue width is
		// spent; the entries selected out are then closed up with at
		// most width segment moves, so the (much longer) blocked tail
		// is never visited.
		var holes [8]int
		n := 0
		for qi := 0; qi < len(q) && n < width; qi++ {
			idx := int(q[qi])
			s := &e.robSched[idx]
			// The wake-up gate stays as a guard: an injected
			// lost-broadcast fault can re-arm wait on an entry that
			// already joined the scan. The memory-order gate needs no
			// check here: a memory µop joins the scan only once it is
			// its context's next to issue.
			if s.wait != 0 {
				continue
			}
			if s.ready > cycle {
				// The broadcast has not arrived yet.
				next = min(next, s.ready)
				continue
			}
			cls := isa.Class(s.class)
			if sharedDiv && cls == isa.ClassDiv {
				// §4.1: one divider per adjacent cluster pair,
				// statically arbitrated by cycle parity.
				if cycle < e.sharedDivBusy[c/2] || int(cycle)%2 != c%2 {
					next = cycle + 1
					continue
				}
			}
			if !sb.CanIssue(cycle, cls) {
				next = cycle + 1
				continue
			}
			e.doIssue(idx, &e.rob[idx], c)
			// A memory µop's issue may have released its successor
			// into this very queue, behind qi: reload the slice so the
			// scan still reaches it this cycle.
			q = e.iq[c]
			if n < len(holes) {
				holes[n] = qi
			}
			n++
		}
		if n > 0 {
			w := holes[0]
			for i := 0; i < n; i++ {
				end := len(q)
				if i+1 < n {
					end = holes[i+1]
				}
				w += copy(q[w:], q[holes[i]+1:end])
			}
			e.iq[c] = q[:w]
		}
		issued += n
	}
	// Admit the entries woken by this cycle's broadcasts. Done after
	// the scan: latencies are >= 1, so none of them could issue this
	// cycle, and inserting mid-scan would alias the slice being
	// compacted.
	for _, ci := range e.woken {
		e.admit(ci)
	}
	e.woken = e.woken[:0]
	return issued, next
}

// admit passes an entry whose wake-up gate has opened through the
// memory-order gate: it joins its cluster's scan list at its age
// position unless it is a memory µop with an older one still to
// compute its address (§5.2), which waits in memPark until its
// predecessor's issue releases it.
func (e *engine) admit(idx int32) {
	s := &e.robSched[idx]
	if s.memSeq >= 0 && s.memSeq != e.th[s.tid].nextMemIssue {
		*e.parkSlot(int(s.tid), s.memSeq) = idx
		return
	}
	e.enqueueReady(e.rob[idx].cluster, idx)
}

// parkSlot returns context tid's memPark slot for memory sequence
// number seq.
func (e *engine) parkSlot(tid int, seq int64) *int32 {
	n := len(e.rob)
	return &e.memPark[tid*n+int(seq%int64(n))]
}

// releaseMem moves context tid's parked memory µop seq, if it is
// already woken, into its cluster's scan list at its age position.
func (e *engine) releaseMem(tid int, seq int64) {
	slot := e.parkSlot(tid, seq)
	if idx := *slot; idx >= 0 {
		*slot = -1
		e.enqueueReady(e.rob[idx].cluster, idx)
	}
}

// enqueueReady inserts a woken or released entry into cluster c's
// scan list, keeping it sorted by age (circular distance from robHead
// — the relative order of live entries is invariant as the head
// advances). Dispatched and woken entries are usually among the
// youngest, so the scan walks from the tail.
func (e *engine) enqueueReady(c int, idx int32) {
	n := len(e.rob)
	age := int(idx) - e.robHead
	if age < 0 {
		age += n
	}
	q := e.iq[c]
	i := len(q)
	for i > 0 {
		a := int(q[i-1]) - e.robHead
		if a < 0 {
			a += n
		}
		if a <= age {
			break
		}
		i--
	}
	q = append(q, 0)
	copy(q[i+1:], q[i:])
	q[i] = idx
	e.iq[c] = q
}

func (e *engine) doIssue(idx int, ent *robEntry, c int) {
	if e.actOn {
		// Count before any state changes: the source regInfo entries
		// still describe this µop's operands as it sees them.
		e.countIssueActivity(ent, c)
	}
	lat := e.cfg.Lat.Of(ent.m.Class)
	e.sb[c].Issue(e.cycle, ent.m.Class, lat)
	if e.cfg.SharedDividers && ent.m.Class == isa.ClassDiv {
		e.sharedDivBusy[c/2] = e.cycle + int64(lat)
	}
	var done int64
	switch ent.m.Class {
	case isa.ClassLoad:
		if e.forwardHit(ent) {
			e.forwards++
			done = e.cycle + int64(lat)
		} else {
			done = e.hi.AccessLoad(ent.m.Addr, e.cycle)
			// Anything beyond the L1 hit latency went past the L1
			// (or merged into an in-flight refill) — stall-stack
			// attribution treats both as cache-miss time.
			ent.l1Miss = done > e.cycle+int64(e.cfg.Mem.L1HitLatency)
		}
	default:
		done = e.cycle + int64(lat)
	}
	if ent.m.HasDst {
		done = e.sb[c].ReserveWriteback(done)
		ri := e.readyInfo(ent.m.Dst.Class, ent.dstPhys)
		ri.readyAt = done
		ri.producer = int32(c)
		// Broadcast to the waiting consumers: walk the register's
		// chain once instead of every queued µop polling every cycle.
		// Execution latencies are >= 1, so a woken consumer can never
		// issue in the broadcasting cycle — the walk order within a
		// cycle is unobservable.
		for h := ri.consHead; h >= 0; {
			cidx := int(h >> 1)
			a := done
			if cc := e.rob[cidx].cluster; cc != c {
				if e.cfg.ForwardDelay != nil {
					a += int64(e.cfg.ForwardDelay[c][cc])
				} else {
					a += int64(e.cfg.XClusterDelay)
				}
			}
			cs := &e.robSched[cidx]
			if a > cs.ready {
				cs.ready = a
			}
			if cs.wait--; cs.wait == 0 {
				// Last outstanding producer: the consumer leaves its
				// chains and (re)joins the select scan after this
				// cycle's pass.
				e.woken = append(e.woken, int32(cidx))
			}
			h = e.robLink[cidx][h&1]
		}
		ri.consHead = -1
	}
	e.iqLen[c]--
	ent.issued = true
	ent.doneAt = done
	if ent.prec != nil {
		ent.prec.Issue = e.cycle
		ent.prec.Done = done
	}
	if ent.memSeq >= 0 {
		t := &e.th[ent.tid]
		t.nextMemIssue++
		e.releaseMem(ent.tid, t.nextMemIssue)
	}
	if t := &e.th[ent.tid]; ent.mispred && t.pendingRedirect == idx {
		// The branch resolves at done; correct-path rename resumes
		// after the configuration's minimum misprediction penalty.
		t.fetchResumeAt = done + int64(e.cfg.MispredictPenalty)
		t.pendingRedirect = -1
		t.resumeTrap = false
	}
}

// countIssueActivity records this µop's dynamic events into the
// activity block — the measured form of the paper's Table 1 prices.
// Each source operand either arrives off the forwarding network this
// very cycle (a bypass catch: no register-file access) or is read
// through a read port of its subset. A produced result costs one
// replicated write on its subset plus one wake-up comparison and one
// bypass drive per operand side that monitors the subset (all 2 x
// NumClusters sides without read specialization, half of them with
// it). Pure observation — no simulation state is mutated.
func (e *engine) countIssueActivity(ent *robEntry, c int) {
	for i := 0; i < ent.m.NSrc; i++ {
		cl := ent.m.Src[i].Class
		ri := e.readyInfo(cl, ent.srcPhys[i])
		if ri.producer >= 0 && e.availAt(cl, ent.srcPhys[i], c) == e.cycle {
			// The value lands at this cluster exactly now: caught off
			// the bypass network, no port access.
			if int(ri.producer) == c {
				e.act.AddBypassLocal()
			} else {
				e.act.AddBypassCross()
			}
			continue
		}
		e.act.AddRegRead(e.ren.SubsetOf(cl, ent.srcPhys[i]))
	}
	if ent.m.HasDst {
		s := 0
		if e.cfg.Rename.NumSubsets > 1 {
			s = c
		}
		e.act.AddRegWrite(s)
		for c2 := 0; c2 < e.cfg.NumClusters; c2++ {
			if n := uint64(e.monitors[s][c2]); n > 0 {
				e.act.AddWakeup(c2, n)
				e.act.AddBypassDrive(c2, n)
			}
		}
	}
}

// forwardHit reports whether an older in-flight store to the same
// 8-byte word can forward its data to the load (store-to-load
// forwarding; all accesses are 8-byte-aligned words in this ISA).
func (e *engine) forwardHit(ld *robEntry) bool {
	for i := len(e.stores) - 1; i >= e.storesHead; i-- {
		st := &e.rob[e.stores[i]]
		if st.tid == ld.tid && st.memSeq < ld.memSeq && st.m.Addr == ld.m.Addr {
			return true
		}
	}
	return false
}

func (e *engine) commit() int {
	n := 0
	for n < e.cfg.CommitWidth && e.robCount > 0 {
		idx := e.robHead
		ent := &e.rob[idx]
		if !ent.issued || ent.doneAt > e.cycle {
			break
		}
		if e.chk != nil {
			if e.corruptNext {
				// Armed stream-corruption fault: damage the µop just
				// before the oracle sees it.
				ent.m.Seq ^= 1 << 62
				ent.m.PC ^= 1 << 12
				e.corruptNext = false
			}
			if err := e.checkCommit(ent); err != nil {
				e.fail = err
				break
			}
		}
		if ent.m.Class == isa.ClassStore {
			e.hi.AccessStore(ent.m.Addr, e.cycle)
			if e.storesHead < len(e.stores) && e.stores[e.storesHead] == idx {
				e.storesHead++
			}
		}
		if ent.prevPhys != rename.None {
			e.ren.Free(ent.m.Dst.Class, ent.prevPhys)
		}
		e.inflight[ent.cluster]--
		e.uops++
		if ent.m.LastOfInst && !ent.synth {
			e.insts++
			e.th[ent.tid].insts++
			e.load.Commit(ent.cluster)
		}
		if t := &e.th[ent.tid]; t.pendingTrap == idx {
			t.fetchResumeAt = e.cycle + int64(e.cfg.TrapPenalty)
			t.pendingTrap = -1
			t.resumeTrap = true
		}
		if ent.prec != nil {
			ent.prec.Mispredict = ent.mispred
			e.prb.Retire(ent.prec, e.cycle)
			ent.prec = nil
		}
		e.robHead = (e.robHead + 1) % len(e.rob)
		e.robCount--
		n++
	}
	return n
}
