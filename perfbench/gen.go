package main

import (
	"math/rand"

	"wsrs"
	"wsrs/internal/explore"
	"wsrs/internal/serve"
)

// The two halves of the Figure 4 grid: the memory-bound kernels (IPC
// below 0.7, most simulated cycles commit nothing) and the
// compute-bound rest (IPC up to 3.7, few idle cycles).
var (
	memboundKernels = []string{"mcf", "swim", "applu", "gcc", "mgrid", "equake"}
	computeKernels  = []string{"crafty", "wupwise", "galgel", "facerec", "gzip", "vpr"}
)

func allKernels() []string {
	return append(append([]string(nil), memboundKernels...), computeKernels...)
}

// kind is a serve-mix request class.
type kind int

const (
	kindCold    kind = iota // a cell no earlier request asked for
	kindWarm                // an exact duplicate of a cold cell of this run
	kindExplore             // POST /v1/explore over exploreRequest's space
)

func (k kind) String() string {
	return [...]string{"cold", "warm", "explore"}[k]
}

// Shape of one serve-mix batch. Every batch holds the same multiset of
// requests — one cold cell per kernel, so both grid halves weigh the
// same in every batch and seeds only change order, configurations and
// cell identities. README.md ("Traffic mix") gives the source of each
// proportion, or says that it is an assumption.
const (
	// One single-cell job per kernel, as the fleet coordinator sends
	// a Figure 4 grid to its members.
	coldPerBatch = 12
	// Warm jobs equal cold jobs, as in wsrsload's default -dup 0.5
	// mix. Most are cache hits; the coalesced third is an assumption
	// (no caller's coalescing rate is recorded).
	coalescePerBatch = 4 // duplicates sent right behind their original
	hitPerBatch      = 8 // duplicates of cells finished earlier
	// Assumed: no caller's explore rate is recorded. Two explores
	// are 8% of the requests and about 30% of the simulated
	// instructions.
	explorePerBatch = 2
	batchLen        = coldPerBatch + coalescePerBatch + hitPerBatch + explorePerBatch
)

// request is one generated serve-mix request.
type request struct {
	Kind kind
	Cell serve.CellSpec // cold and warm jobs
	// Coalesce marks a duplicate sent directly behind its original.
	Coalesce bool
	// ExploreSeed is the fresh allocation-policy seed of an explore.
	ExploreSeed int64
}

// splitmix64 scrambles a counter into a well-spread 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive maps (workload seed, stream, batch, index) to a positive
// int63: the namespace every generated seed is drawn from. Distinct
// workload seeds give disjoint namespaces, so no run replays another
// run's cells.
func derive(seed int64, stream, batch, i uint64) int64 {
	x := splitmix64(uint64(seed))
	x = splitmix64(x ^ stream<<56 ^ batch<<24 ^ i)
	return int64(x>>1) | 1
}

const (
	streamOrder = iota + 1
	streamCell
	streamExplore
	streamSample
)

// coldCells returns batch b's cold cells, in kernel-shuffled order.
func coldCells(seed int64, b int) []serve.CellSpec {
	rng := rand.New(rand.NewSource(derive(seed, streamOrder, uint64(b), 0)))
	kernels := allKernels()
	confs := wsrs.Figure4Configs()
	out := make([]serve.CellSpec, len(kernels))
	for i, p := range rng.Perm(len(kernels)) {
		out[i] = serve.CellSpec{
			Kernel: kernels[p],
			Config: string(confs[rng.Intn(len(confs))]),
			Seed:   derive(seed, streamCell, uint64(b), uint64(i)),
		}
	}
	return out
}

// genBatch returns batch b of the serve-mix request sequence for the
// given workload seed. The sequence is a pure function of (seed, b).
// Cold requests and explores come in seeded order; each coalescing
// duplicate directly follows its original, so the other client sends
// it while the original is still simulating; cache-hit duplicates
// copy a cell of the previous batch, which the batch barrier
// guarantees has finished (in batch 0 they copy an earlier cell of the
// same batch, which has most likely finished).
func genBatch(seed int64, b int) []request {
	rng := rand.New(rand.NewSource(derive(seed, streamOrder, uint64(b), 1)))
	cold := coldCells(seed, b)
	base := make([]request, 0, coldPerBatch+explorePerBatch)
	for _, c := range cold {
		base = append(base, request{Kind: kindCold, Cell: c})
	}
	for i := 0; i < explorePerBatch; i++ {
		base = append(base, request{Kind: kindExplore,
			ExploreSeed: derive(seed, streamExplore, uint64(b), uint64(i))})
	}
	rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })

	// Coalescing duplicates rotate through the kernels: every
	// coldPerBatch/coalescePerBatch consecutive batches duplicate each
	// kernel once, so the slow kernels weigh the same in the coalesced
	// latencies of every seed.
	order := rand.New(rand.NewSource(derive(seed, streamOrder, 0, 2))).Perm(coldPerBatch)
	groups := coldPerBatch / coalescePerBatch
	coalesce := map[string]bool{}
	for _, k := range order[(b%groups)*coalescePerBatch : (b%groups+1)*coalescePerBatch] {
		coalesce[allKernels()[k]] = true
	}
	seq := make([]request, 0, batchLen)
	for _, r := range base {
		seq = append(seq, r)
		if r.Kind == kindCold && coalesce[r.Cell.Kernel] {
			seq = append(seq, request{Kind: kindWarm, Cell: r.Cell, Coalesce: true})
		}
	}

	var prev []serve.CellSpec
	if b > 0 {
		prev = coldCells(seed, b-1)
	}
	for i := 0; i < hitPerBatch; i++ {
		if prev != nil {
			at := rng.Intn(len(seq) + 1)
			for at < len(seq) && seq[at].Coalesce {
				at++ // keep coalescing duplicates right behind their original
			}
			seq = insertAt(seq, at, request{Kind: kindWarm, Cell: prev[rng.Intn(len(prev))]})
			continue
		}
		// Batch 0: duplicate an earlier cold request, at least two
		// positions behind it.
		var origs []int
		for j, r := range seq {
			if r.Kind == kindCold && j+2 <= len(seq) {
				origs = append(origs, j)
			}
		}
		o := origs[rng.Intn(len(origs))]
		at := o + 2 + rng.Intn(len(seq)-o-1)
		for at < len(seq) && seq[at].Coalesce {
			at++
		}
		seq = insertAt(seq, at, request{Kind: kindWarm, Cell: seq[o].Cell})
	}
	return seq
}

func insertAt(seq []request, at int, r request) []request {
	seq = append(seq, request{})
	copy(seq[at+1:], seq[at:])
	seq[at] = r
	return seq
}

// exploreRequest is the fixed exploration every explore request
// sends, over the given kernel pair: 48 raw combinations over 2/4
// clusters, three register files, two issue-queue sizes and the
// unspecialized and WSRS machines, at a short window. Each request
// carries a fresh seed, so its cells miss the result cache and
// actually simulate.
func exploreRequest(kernels []string, seed int64) explore.Request {
	return explore.Request{
		Space: explore.Space{
			Clusters:   []int{2, 4},
			Widths:     []int{2},
			Regs:       []int{384, 512, 1024},
			IQSizes:    []int{16, 56},
			ROBSizes:   []int{64},
			Specialize: []string{explore.SpecNone, explore.SpecWSRS},
			Policies:   []string{"RR", "RC"},
			Kernels:    kernels,
		},
		Strategy: explore.StrategyGrid,
		Seed:     seed,
		Warmup:   2_000,
		Measure:  8_000,
	}
}

var serveExploreKernels = []string{"gzip", "crafty"}
