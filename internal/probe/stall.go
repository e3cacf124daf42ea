package probe

// Cause attributes one commit-slot bubble. Attribution asks "why did
// the oldest in-flight µop not retire this cycle" (or, with an empty
// window, "why is the front end not delivering"): the classic
// CPI-stack decomposition over commit slots.
type Cause int

// Bubble causes, from the paper's evaluation narrative: branch
// mispredictions and window traps (front-end refill), cache misses,
// the one-cycle cross-cluster forwarding delay, plain execution
// latency and dependence chains, the in-order memory address
// computation, per-cluster issue bandwidth, and the WSRS-specific
// register-subset free-list exhaustion.
const (
	// CauseMispredict: the window is empty while the front end
	// refills after a branch misprediction.
	CauseMispredict Cause = iota
	// CauseTrap: the window is empty after a register-window
	// overflow/underflow trap.
	CauseTrap
	// CauseCacheMiss: the oldest µop (or the producer it waits on)
	// is a load that missed the L1 and is still in the hierarchy.
	CauseCacheMiss
	// CauseXClusterForward: the oldest µop's operand is ready on its
	// producer's cluster but still crossing to the consumer cluster.
	CauseXClusterForward
	// CauseExecDep: the oldest µop waits on an in-flight (non-miss)
	// producer — a dependence chain.
	CauseExecDep
	// CauseExecLat: the oldest µop has issued and is still executing
	// (multi-cycle latency, writeback-port delay).
	CauseExecLat
	// CauseMemOrder: the oldest µop is a memory operation held by the
	// in-order address-computation rule (§5.2).
	CauseMemOrder
	// CauseIssueWait: operands ready, but the µop lost selection —
	// per-cluster issue width, functional-unit or divider contention.
	CauseIssueWait
	// CauseFreeList: the window is empty behind a rename stall — the
	// destination register subset has no free register (§2.3 subset
	// pressure).
	CauseFreeList
	// CauseFrontend: the window is empty for any other front-end
	// reason (initial fill, over-pick recycling latency, ...).
	CauseFrontend
	// CauseDrain: the trace is exhausted (end-of-run drain).
	CauseDrain

	// NumCauses is the number of bubble causes.
	NumCauses
)

var causeNames = [NumCauses]string{
	"branch mispredict",
	"window trap",
	"cache miss",
	"xcluster forward",
	"exec dependence",
	"exec latency",
	"mem order",
	"issue wait",
	"subset free-list",
	"frontend other",
	"drain",
}

// String names the cause.
func (c Cause) String() string {
	if c < 0 || c >= NumCauses {
		return "unknown"
	}
	return causeNames[c]
}

// StallStack accounts every commit slot of every recorded cycle:
// slots that retired a µop count as Committed, empty slots are
// attributed to exactly one Cause. The invariant
//
//	Committed + sum(Bubbles) == Cycles * Width
//
// holds by construction; Check verifies it.
type StallStack struct {
	// Width is the machine's commit width (slots per cycle).
	Width int
	// Cycles is the number of recorded (measured) cycles.
	Cycles uint64
	// Committed counts commit slots that retired a µop.
	Committed uint64
	// Bubbles counts empty commit slots per cause.
	Bubbles [NumCauses]uint64
}

// Record accounts one cycle: committed retired slots and bubbles
// empty slots attributed to cause (cause is ignored when bubbles is
// zero).
func (s *StallStack) Record(committed, bubbles int, cause Cause) {
	s.Cycles++
	s.Committed += uint64(committed)
	if bubbles > 0 {
		s.Bubbles[cause] += uint64(bubbles)
	}
}

// RecordIdle accounts n cycles that retired nothing, every commit slot
// a bubble attributed to cause — n calls of Record(0, Width, cause).
func (s *StallStack) RecordIdle(cause Cause, n uint64) {
	s.Cycles += n
	s.Bubbles[cause] += n * uint64(s.Width)
}

// TotalSlots returns Cycles * Width.
func (s *StallStack) TotalSlots() uint64 {
	return s.Cycles * uint64(s.Width)
}

// BubbleTotal returns the sum of all attributed bubbles.
func (s *StallStack) BubbleTotal() uint64 {
	var n uint64
	for _, b := range s.Bubbles {
		n += b
	}
	return n
}

// Share returns the fraction of all commit slots attributed to the
// given causes (0 when nothing was recorded).
func (s *StallStack) Share(causes ...Cause) float64 {
	total := s.TotalSlots()
	if total == 0 {
		return 0
	}
	var n uint64
	for _, c := range causes {
		n += s.Bubbles[c]
	}
	return float64(n) / float64(total)
}

// Check reports whether the accounting invariant holds: every slot of
// every recorded cycle is either a committed µop or an attributed
// bubble.
func (s *StallStack) Check() bool {
	return s.Committed+s.BubbleTotal() == s.TotalSlots()
}

func (s *StallStack) reset() {
	w := s.Width
	*s = StallStack{Width: w}
}

// DispatchStalls refines the pipeline's dispatch-slot stall counters
// by structural cause, in dispatch-slot-cycles (the pipeline's
// aggregate StallRedirect/StallRename/StallWindow counters remain the
// golden-file source of truth; these split them further).
type DispatchStalls struct {
	// Redirect: all contexts were waiting on a mispredict/trap
	// redirect.
	Redirect uint64
	// ROBFull: the shared reorder buffer was full.
	ROBFull uint64
	// IQFull: the target cluster's issue queue was full.
	IQFull uint64
	// ClusterFull: the target cluster's in-flight limit was reached.
	ClusterFull uint64
	// FreeList: the destination register subset had no free register.
	FreeList uint64
	// FreeListBySubset splits FreeList by destination subset.
	FreeListBySubset []uint64
}

// AddFreeList records n free-list stall slots against subset s.
func (d *DispatchStalls) AddFreeList(s, n int) {
	d.FreeList += uint64(n)
	for len(d.FreeListBySubset) <= s {
		d.FreeListBySubset = append(d.FreeListBySubset, 0)
	}
	d.FreeListBySubset[s] += uint64(n)
}

func (d *DispatchStalls) reset() {
	*d = DispatchStalls{}
}
