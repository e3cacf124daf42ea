package wsrs

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper, plus the ablations listed in DESIGN.md §5. Each
// sub-benchmark runs a complete warm+measure simulation per iteration
// and reports the experiment's headline quantity (IPC, unbalancing
// degree, nanojoules, ...) via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every number of the evaluation. EXPERIMENTS.md records
// a paper-vs-measured comparison produced with cmd/wsrsbench.

import (
	"fmt"
	"testing"

	"wsrs/internal/alloc"
	"wsrs/internal/cacti"
	"wsrs/internal/regfile"
	"wsrs/internal/trace"
)

// benchOpts keeps the full `-bench=.` sweep around a minute; use
// cmd/wsrsbench for longer paper-scale runs.
var benchOpts = SimOpts{WarmupInsts: 5_000, MeasureInsts: 20_000}

// BenchmarkTable1RegisterFile regenerates Table 1: the register-file
// complexity comparison of the five organizations. The reported
// metrics are the WSRS row's access time and energy.
func BenchmarkTable1RegisterFile(b *testing.B) {
	var rows []regfile.Row
	for i := 0; i < b.N; i++ {
		rows = regfile.Table1(cacti.Tech009(), regfile.PaperConfigs())
	}
	wsrsRow := rows[3]
	b.ReportMetric(wsrsRow.AccessNs, "WSRS-ns")
	b.ReportMetric(wsrsRow.EnergyNJ, "WSRS-nJ")
	b.ReportMetric(wsrsRow.AreaRel, "WSRS-relarea")
	b.ReportMetric(float64(wsrsRow.Bypass10GHz), "WSRS-bypass10")
}

// BenchmarkFigure4IPC regenerates Figure 4: IPC of every benchmark on
// every configuration (72 sub-benchmarks).
func BenchmarkFigure4IPC(b *testing.B) {
	for _, kernel := range Kernels() {
		for _, conf := range Figure4Configs() {
			kernel, conf := kernel, conf
			b.Run(fmt.Sprintf("%s/%s", kernel, conf), func(b *testing.B) {
				var ipc float64
				for i := 0; i < b.N; i++ {
					res, err := RunKernel(conf, kernel, benchOpts)
					if err != nil {
						b.Fatal(err)
					}
					ipc = res.IPC
				}
				b.ReportMetric(ipc, "IPC")
			})
		}
	}
}

// BenchmarkFigure5Unbalancing regenerates Figure 5: the §5.4.2
// unbalancing degree under the RC and RM policies.
func BenchmarkFigure5Unbalancing(b *testing.B) {
	for _, kernel := range Kernels() {
		for _, conf := range []ConfigName{ConfWSRSRC512, ConfWSRSRM512} {
			kernel, conf := kernel, conf
			b.Run(fmt.Sprintf("%s/%s", kernel, conf), func(b *testing.B) {
				var deg float64
				for i := 0; i < b.N; i++ {
					res, err := RunKernel(conf, kernel, benchOpts)
					if err != nil {
						b.Fatal(err)
					}
					deg = res.UnbalancingDegree
				}
				b.ReportMetric(deg, "unbal%")
			})
		}
	}
}

// BenchmarkAblationRenameImpl compares the two renaming
// implementations of §2.2 on the WSRS machine (§5.2.1 reports no
// significant difference; implementation 1 trades wasted registers
// for two fewer pipeline stages).
func BenchmarkAblationRenameImpl(b *testing.B) {
	cases := []struct {
		name string
		mods []MachineOption
	}{
		{"impl2-exact", nil},
		{"impl1-overpick", []MachineOption{WithRenameImpl1(3)}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				res, err := RunKernelWith(ConfWSRSRC512, "gzip", benchOpts, "", c.mods...)
				if err != nil {
					b.Fatal(err)
				}
				ipc = res.IPC
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkAblationRecycleDepth sweeps implementation 1's recycling
// pipeline depth: deeper pipelines keep more registers in flight and
// increase rename stalls (§2.2.1's "residual problem").
func BenchmarkAblationRecycleDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8, 16} {
		depth := depth
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				res, err := RunKernelWith(ConfWSRSRC384, "crafty", benchOpts, "",
					WithRenameImpl1(depth))
				if err != nil {
					b.Fatal(err)
				}
				ipc = res.IPC
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkAblationRegisterSweep extends the paper's 384/512
// comparison: WSRS IPC as the physical register budget varies. The
// 256-register point has 64-register subsets (fewer than the 84
// renamable logical registers) and needs the §2.3 deadlock
// workaround.
func BenchmarkAblationRegisterSweep(b *testing.B) {
	for _, regs := range []int{256, 384, 512, 768} {
		regs := regs
		b.Run(fmt.Sprintf("regs-%d", regs), func(b *testing.B) {
			var ipc, moves float64
			for i := 0; i < b.N; i++ {
				res, err := RunKernelWith(ConfWSRSRC512, "gzip", benchOpts, "",
					WithRegisters(regs), WithDeadlockMoves())
				if err != nil {
					b.Fatal(err)
				}
				ipc = res.IPC
				moves = float64(res.InjectedMoves)
			}
			b.ReportMetric(ipc, "IPC")
			b.ReportMetric(moves, "moves")
		})
	}
}

// BenchmarkAblationXClusterDelay sweeps the inter-cluster forwarding
// delay (§4.3.1's fast-forwarding discussion): WSRS's locality
// advantage grows with the delay.
func BenchmarkAblationXClusterDelay(b *testing.B) {
	for _, d := range []int{0, 1, 2, 3} {
		for _, conf := range []ConfigName{ConfRR256, ConfWSRSRC512} {
			d, conf := d, conf
			b.Run(fmt.Sprintf("delay-%d/%s", d, conf), func(b *testing.B) {
				var ipc float64
				for i := 0; i < b.N; i++ {
					res, err := RunKernelWith(conf, "gzip", benchOpts, "", WithXClusterDelay(d))
					if err != nil {
						b.Fatal(err)
					}
					ipc = res.IPC
				}
				b.ReportMetric(ipc, "IPC")
			})
		}
	}
}

// BenchmarkAblationPolicy compares allocation policies on the WSRS
// machine, including the least-loaded RC-bal policy that previews the
// paper's future-work direction ("dynamic policies that trade off
// allocation of dependent instructions within a cluster and workload
// balancing").
func BenchmarkAblationPolicy(b *testing.B) {
	for _, pol := range []string{"RM", "RC", "RC-bal", "RC-dep"} {
		pol := pol
		b.Run(pol, func(b *testing.B) {
			var ipc, deg float64
			for i := 0; i < b.N; i++ {
				res, err := RunKernelWith(ConfWSRSRC512, "facerec", benchOpts, pol)
				if err != nil {
					b.Fatal(err)
				}
				ipc = res.IPC
				deg = res.UnbalancingDegree
			}
			b.ReportMetric(ipc, "IPC")
			b.ReportMetric(deg, "unbal%")
		})
	}
}

// BenchmarkAblationPredictor bounds the branch-prediction cost: the
// paper's 512-Kbit 2Bc-gskew versus an oracle.
func BenchmarkAblationPredictor(b *testing.B) {
	cases := []struct {
		name string
		mods []MachineOption
	}{
		{"2bcgskew-512kbit", nil},
		{"oracle", []MachineOption{WithPerfectBP()}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				res, err := RunKernelWith(ConfRR256, "vpr", benchOpts, "", c.mods...)
				if err != nil {
					b.Fatal(err)
				}
				ipc = res.IPC
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkSimulatorThroughput measures the timing model's own speed
// in simulated micro-ops per second on a synthetic stream.
func BenchmarkSimulatorThroughput(b *testing.B) {
	gen := trace.NewSynth(trace.DefaultSynthConfig())
	ops := make([]trace.MicroOp, 100_000)
	for i := range ops {
		ops[i], _ = gen.Next()
	}
	cfg, _, err := Build(ConfWSRSRC512, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		pol := alloc.NewRC(1)
		res, err := runPipeline(cfg, pol, ops)
		if err != nil {
			b.Fatal(err)
		}
		total += int(res.Uops)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "uops/s")
}

// BenchmarkAblationPools compares the two write-specialization
// organizations of Figure 2: four identical clusters (round-robin)
// versus pools of identical functional units (class-static
// allocation, §2.4's predecoded-bits case).
func BenchmarkAblationPools(b *testing.B) {
	for _, conf := range []ConfigName{ConfWSRR512, ConfWSPools512} {
		conf := conf
		b.Run(string(conf), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				res, err := RunKernel(conf, "gzip", benchOpts)
				if err != nil {
					b.Fatal(err)
				}
				ipc = res.IPC
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkAblationForwarding compares the three fast-forwarding
// hardware options of §4.3.1 on the WSRS machine and the conventional
// one. The paper argues WSRS placement makes restricted forwarding
// cheaper: with random distribution, two of four consumers of a
// result sit on the producer cluster (vs one of four conventionally)
// and three of four within the adjacent pair.
func BenchmarkAblationForwarding(b *testing.B) {
	for _, fw := range []string{ForwardComplete, ForwardPairs, ForwardIntra} {
		for _, conf := range []ConfigName{ConfRR256, ConfWSRSRC512} {
			fw, conf := fw, conf
			b.Run(fmt.Sprintf("%s/%s", fw, conf), func(b *testing.B) {
				var ipc float64
				for i := 0; i < b.N; i++ {
					res, err := RunKernelWith(conf, "galgel", benchOpts, "", WithForwarding(fw))
					if err != nil {
						b.Fatal(err)
					}
					ipc = res.IPC
				}
				b.ReportMetric(ipc, "IPC")
			})
		}
	}
}

// BenchmarkSMTCoRun measures SMT co-runs on the WSRS machine — the
// §2.3 scenario where the combined architectural state of several
// contexts exceeds a register subset and the deadlock machinery
// becomes load-bearing.
func BenchmarkSMTCoRun(b *testing.B) {
	pairs := [][]string{
		{"gzip", "wupwise"},
		{"crafty", "mcf"},
		{"swim", "facerec"},
	}
	for _, pair := range pairs {
		pair := pair
		b.Run(fmt.Sprintf("%s+%s", pair[0], pair[1]), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				res, err := RunKernelSMT(ConfWSRSRC512, pair, benchOpts)
				if err != nil {
					b.Fatal(err)
				}
				ipc = res.IPC
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkCoreKernel times one timing-core cell per kernel at the
// service windows (20k warm-up + 60k measured instructions) on the
// paper's WSRS machine, over the memoized trace: mcf and swim spend
// most of their cycles stalled on memory, crafty keeps the machine
// busy, so together they bound what idle-cycle handling buys and
// costs.
func BenchmarkCoreKernel(b *testing.B) {
	for _, kernel := range []string{"mcf", "swim", "crafty"} {
		b.Run(kernel, func(b *testing.B) {
			// The first run fills the trace cache; only the timing
			// core is measured.
			if _, err := RunKernel(ConfWSRSRC512, kernel, SimOpts{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunKernel(ConfWSRSRC512, kernel, SimOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
