package wsrs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"testing"

	"wsrs/internal/pipeline"
	"wsrs/internal/probe"
)

// The differential suite locks the allocation-free core down from the
// outside: every observation layer (probe, stats, self-check,
// telemetry) must be invisible to the timing model, engine re-use
// through the sync.Pool must be invisible to repeated runs, and the
// headline statistics of the whole kernel × configuration grid are
// pinned byte-for-byte in testdata/differential.golden. A change that
// perturbs any cycle count anywhere in the machine shows up as a
// golden diff; a change that makes any observer non-neutral shows up
// as a mode mismatch.

// diffOpts keeps the sweep fast; like goldenOpts, everything feeding
// the comparisons is deterministic at a fixed seed.
var diffOpts = SimOpts{WarmupInsts: 1000, MeasureInsts: 4000, Seed: 1}

// stripObservers drops the observation payloads (present only in the
// modes that request them) so Results can be compared structurally.
func stripObservers(r Result) Result {
	r.Stalls = nil
	r.Activity = nil
	return r
}

// diffModes are the observation variants every swept cell must agree
// across. "plain2" re-runs plain so each cell also exercises engine
// re-use from the pool against its own first run.
var diffModes = []struct {
	name string
	mod  func(*SimOpts)
}{
	{"plain", func(*SimOpts) {}},
	{"plain2", func(*SimOpts) {}},
	{"stats", func(o *SimOpts) { o.Stats = true }},
	{"probe", func(o *SimOpts) { o.Probe = NewProbe(ProbeOptions{Events: true, Stalls: true, Occupancy: true}) }},
	{"check", func(o *SimOpts) { o.Check = true }},
	{"telemetry", func(o *SimOpts) { o.Telemetry = true }},
	{"all", func(o *SimOpts) { o.Stats, o.Check, o.Telemetry = true, true, true }},
}

// TestDifferentialGrid sweeps every kernel × configuration cell,
// asserts mode-invariance, and pins the plain results in a golden
// file.
func TestDifferentialGrid(t *testing.T) {
	var buf bytes.Buffer
	for _, kernel := range Kernels() {
		for _, conf := range AllConfigs() {
			base, err := RunKernel(conf, kernel, diffOpts)
			if err != nil {
				t.Fatalf("%s/%s: %v", kernel, conf, err)
			}
			// The full mode sweep is run on a three-kernel cross
			// section (integer, pointer-chasing, floating-point);
			// the remaining cells check the strongest two modes.
			modes := diffModes
			switch kernel {
			case "gzip", "mcf", "wupwise":
			default:
				modes = modes[:0:0]
				modes = append(modes, diffModes[1], diffModes[4], diffModes[6])
			}
			for _, m := range modes {
				opts := diffOpts
				m.mod(&opts)
				got, err := RunKernel(conf, kernel, opts)
				if err != nil {
					t.Fatalf("%s/%s [%s]: %v", kernel, conf, m.name, err)
				}
				if opts.Stats && got.Stalls == nil {
					t.Errorf("%s/%s [%s]: stats mode returned no stall stack", kernel, conf, m.name)
				}
				if opts.Telemetry && got.Activity == nil {
					t.Errorf("%s/%s [%s]: telemetry mode returned no activity block", kernel, conf, m.name)
				}
				if !reflect.DeepEqual(stripObservers(got), stripObservers(base)) {
					t.Errorf("%s/%s [%s]: result differs from plain run\n got: %+v\nwant: %+v",
						kernel, conf, m.name, stripObservers(got), stripObservers(base))
				}
			}
			fmt.Fprintf(&buf, "%-10s | %-13s | cycles %7d | uops %6d | insts %6d | mispred %5d | stalls %6d/%6d/%6d\n",
				kernel, conf, base.Cycles, base.Uops, base.Insts, base.Mispredicts,
				base.StallRedirect, base.StallRename, base.StallWindow)
		}
	}
	checkGolden(t, "differential.golden", buf.Bytes())
}

// TestDifferentialPolicySeeds crosses every allocation policy with
// several seeds on the 512-register WSRS machine and asserts the
// checked and telemetry-enabled runs are identical to the plain ones.
// Seeded policies draw from their own RNG only, so cycle identity
// must hold at every seed.
func TestDifferentialPolicySeeds(t *testing.T) {
	for _, policy := range PolicyNames() {
		// Round-robin ignores operand subsets, so it is only legal on
		// the non-read-specialized machine; the WSRS-aware policies
		// sweep the WSRS machine.
		conf := ConfWSRSRC512
		if policy == "RR" {
			conf = ConfWSRR512
		}
		for _, seed := range []int64{1, 7, 42} {
			cell := GridCell{Kernel: "gzip", Config: conf, Policy: policy, Seed: seed}
			opts := diffOpts
			base, err := RunGrid([]GridCell{cell}, opts, 1)
			if err != nil {
				t.Fatalf("%s seed %d: %v", policy, seed, err)
			}
			for _, m := range []struct {
				name string
				mod  func(*SimOpts)
			}{
				{"check", func(o *SimOpts) { o.Check = true }},
				{"telemetry", func(o *SimOpts) { o.Telemetry = true }},
			} {
				mo := diffOpts
				m.mod(&mo)
				got, err := RunGrid([]GridCell{cell}, mo, 1)
				if err != nil {
					t.Fatalf("%s seed %d [%s]: %v", policy, seed, m.name, err)
				}
				if !reflect.DeepEqual(stripObservers(got[0].Result), stripObservers(base[0].Result)) {
					t.Errorf("%s seed %d [%s]: result differs from plain run", policy, seed, m.name)
				}
			}
		}
	}
}

// TestDifferentialGridParallel runs one batch of cells serially and
// through the parallel worker pool and asserts identical results:
// engine recycling across worker goroutines must not leak state
// between cells.
func TestDifferentialGridParallel(t *testing.T) {
	var cells []GridCell
	for _, kernel := range []string{"gzip", "mcf", "wupwise"} {
		for _, conf := range AllConfigs() {
			cells = append(cells, GridCell{Kernel: kernel, Config: conf})
		}
	}
	serial, err := RunGrid(cells, diffOpts, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunGrid(cells, diffOpts, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Errorf("%s/%s: parallel grid result differs from serial",
				cells[i].Kernel, cells[i].Config)
		}
	}
}

// renderHist pins a histogram compactly: sample count, sum, maximum
// and an FNV-64a digest of the full bucket vector (so a single moved
// sample changes the line).
func renderHist(w io.Writer, name string, h *probe.Histogram) {
	f := fnv.New64a()
	var b [8]byte
	for _, c := range h.Counts {
		binary.LittleEndian.PutUint64(b[:], c)
		f.Write(b[:])
	}
	fmt.Fprintf(w, "    %-9s n %7d sum %9d max %4d fnv %016x\n", name, h.N, h.Sum, h.Max(), f.Sum64())
}

// renderObservers writes every observer payload of one probed,
// telemetry-enabled run: the pipeline's dispatch stall counters, the
// commit-slot stall stack, the probe's dispatch refinement, the
// occupancy histograms and the activity block.
func renderObservers(w io.Writer, label string, r Result, p *Probe) {
	fmt.Fprintf(w, "%s | cycles %d uops %d | stall redirect %d rename %d window %d\n",
		label, r.Cycles, r.Uops, r.StallRedirect, r.StallRename, r.StallWindow)
	s := r.Stalls
	fmt.Fprintf(w, "  stack cycles %d committed %d bubbles %v ok %v\n", s.Cycles, s.Committed, s.Bubbles, s.Check())
	d := p.Disp
	fmt.Fprintf(w, "  disp redirect %d rob %d iq %d cluster %d freelist %d %v\n",
		d.Redirect, d.ROBFull, d.IQFull, d.ClusterFull, d.FreeList, d.FreeListBySubset)
	renderHist(w, "rob", &p.Occ.ROB)
	for i := range p.Occ.IQ {
		renderHist(w, fmt.Sprintf("iq%d", i), &p.Occ.IQ[i])
	}
	for i := range p.Occ.IntFree {
		renderHist(w, fmt.Sprintf("intfree%d", i), &p.Occ.IntFree[i])
	}
	for i := range p.Occ.FPFree {
		renderHist(w, fmt.Sprintf("fpfree%d", i), &p.Occ.FPFree[i])
	}
	fmt.Fprintf(w, "  activity %+v\n", *r.Activity)
}

// observedOpts attaches a fresh stall + occupancy probe and a private
// activity block to a copy of o.
func observedOpts(o SimOpts) (SimOpts, *Probe) {
	p := NewProbe(ProbeOptions{Stalls: true, Occupancy: true})
	o.Probe = p
	o.Telemetry = true
	return o, p
}

// renderViolation pins a failed run's checker verdict: which checker,
// the cycle it fired at, its summary and its diagnostic dump.
func renderViolation(w io.Writer, label string, err error) {
	var v *CheckViolation
	if !errors.As(err, &v) {
		fmt.Fprintf(w, "%s: not a violation: %v\n", label, err)
		return
	}
	fmt.Fprintf(w, "%s: %s at cycle %d: %s\n%s\n", label, v.Checker, v.Cycle, v.Summary, v.Detail)
}

// TestGoldenObservers pins what the observers see, not only what the
// timing model computes: the stall stack, dispatch refinement,
// occupancy histograms and activity block of memory-bound (mcf, swim)
// and compute-bound (gcc, gzip, crafty) kernels on every Figure 4
// machine and of one SMT cell, plus the exact verdicts of a cycle
// budget exhausted inside mcf's memory stalls and of the watchdog
// catching an injected lost wake-up broadcast. Any change to how
// idle cycles are stepped, skipped or attributed shows up here.
func TestGoldenObservers(t *testing.T) {
	var buf bytes.Buffer
	for _, kernel := range []string{"mcf", "swim", "gcc", "gzip", "crafty"} {
		for _, conf := range Figure4Configs() {
			opts, p := observedOpts(diffOpts)
			r, err := RunKernel(conf, kernel, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", kernel, conf, err)
			}
			renderObservers(&buf, fmt.Sprintf("%s/%s", kernel, conf), r, p)
		}
	}
	opts, p := observedOpts(diffOpts)
	r, err := RunKernelSMT(ConfWSRSRC512, []string{"gzip", "mcf"}, opts)
	if err != nil {
		t.Fatalf("smt: %v", err)
	}
	renderObservers(&buf, "smt gzip+mcf/"+string(ConfWSRSRC512), r, p)

	budget := diffOpts
	budget.Stats = true
	budget.MaxCycles = 9000
	_, err = RunKernel(ConfWSRSRC512, "mcf", budget)
	renderViolation(&buf, "mcf cycle budget", err)

	fault, err := ParseFault("wakeup@6000")
	if err != nil {
		t.Fatal(err)
	}
	wd := diffOpts
	wd.Stats = true
	wd.Inject = fault
	wd.AuditEvery = -1
	wd.Watchdog = 700
	_, err = RunKernel(ConfWSRSRC512, "mcf", wd)
	renderViolation(&buf, "mcf watchdog", err)
	checkGolden(t, "observers.golden", buf.Bytes())
}

// TestDifferentialCancel closes the Cancel channel of runs that would
// otherwise take hundreds of thousands of cycles: the core must still
// notice it at its first 4096-cycle poll and return ErrCanceled, even
// across memory stalls (swim is stalled on memory from cycle 4058 to
// 4149). The warm-up cannot end before that poll (8 instructions per
// cycle at most), so the probe's stall stack counts every simulated
// cycle.
func TestDifferentialCancel(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	for _, kernel := range []string{"mcf", "swim"} {
		p := NewProbe(ProbeOptions{Stalls: true})
		opts := SimOpts{WarmupInsts: 100_000, MeasureInsts: 200_000, Seed: 1, Cancel: cancel, Probe: p}
		_, err := RunKernel(ConfWSRSRC512, kernel, opts)
		if !errors.Is(err, pipeline.ErrCanceled) {
			t.Fatalf("%s: canceled run returned %v, want ErrCanceled", kernel, err)
		}
		if p.Stall.Cycles != 4096 {
			t.Errorf("%s: run stopped after %d cycles, want the first poll at cycle 4096", kernel, p.Stall.Cycles)
		}
	}
}
