package wsrs

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wsrs/internal/pipeline"
)

// TestDeadlockWithoutMovesTripsWatchdog reproduces the paper's §2.3
// hazard on the facade: with write specialization, a register budget
// well below (subsets x logical registers) can strand every subset-0
// mapping and stop rename forever. Without the move workaround the
// forward-progress watchdog must catch it — deterministically, at the
// same cycle on every run.
func TestDeadlockWithoutMovesTripsWatchdog(t *testing.T) {
	opts := SimOpts{WarmupInsts: 3000, MeasureInsts: 20000, Watchdog: 4000}
	var firstCycle int64
	for i := 0; i < 2; i++ {
		_, err := RunKernelWith(ConfWSRSRC512, "gzip", opts, "", WithRegisters(88))
		var v *CheckViolation
		if !errors.As(err, &v) || v.Checker != "watchdog" {
			t.Fatalf("run %d returned %v, want a watchdog violation", i, err)
		}
		if v.Detail == "" {
			t.Fatal("watchdog violation has no diagnostic dump")
		}
		if i == 0 {
			firstCycle = v.Cycle
		} else if v.Cycle != firstCycle {
			t.Fatalf("watchdog fired at cycle %d then %d: deadlock is not deterministic", firstCycle, v.Cycle)
		}
	}
}

// TestDeadlockMovesRecoverUnderFullCheck is the other half of §2.3:
// the same starved machine with the move workaround enabled commits
// everything, injects moves, and survives the full self-checking
// layer — oracle, legality and conservation audits — proving the
// moves themselves keep the free lists conserved.
func TestDeadlockMovesRecoverUnderFullCheck(t *testing.T) {
	opts := SimOpts{WarmupInsts: 3000, MeasureInsts: 20000, Watchdog: 4000, Check: true}
	res, err := RunKernelWith(ConfWSRSRC512, "gzip", opts, "",
		WithRegisters(88), WithDeadlockMoves())
	if err != nil {
		t.Fatal(err)
	}
	if res.InjectedMoves == 0 {
		t.Fatal("starved machine committed without injecting a single move")
	}
}

func TestCheckedRunMatchesUnchecked(t *testing.T) {
	base := SimOpts{WarmupInsts: 5000, MeasureInsts: 20000}
	plain, err := RunKernel(ConfWSRSRC512, "gzip", base)
	if err != nil {
		t.Fatal(err)
	}
	base.Check = true
	checked, err := RunKernel(ConfWSRSRC512, "gzip", base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, checked) {
		t.Errorf("checking changed the result:\nplain   %+v\nchecked %+v", plain, checked)
	}
}

func TestFacadeFaultInjection(t *testing.T) {
	fault, err := ParseFault("map@3000")
	if err != nil {
		t.Fatal(err)
	}
	opts := SimOpts{WarmupInsts: 3000, MeasureInsts: 50000, Inject: fault}
	_, err = RunKernel(ConfWSRSRC512, "gzip", opts)
	var v *CheckViolation
	if !errors.As(err, &v) || v.Checker != "conservation" {
		t.Fatalf("injected map fault returned %v, want a conservation violation", err)
	}
	if _, at, ok := fault.Applied(); !ok || at < 3000 {
		t.Fatalf("fault not applied as scheduled (applied=%v at=%d)", ok, at)
	}
}

func TestRunGridRejectsInject(t *testing.T) {
	fault, err := ParseFault("leak@100")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunGrid([]GridCell{{Kernel: "gzip", Config: ConfRR256}},
		SimOpts{Inject: fault}, 1)
	if err == nil || !strings.Contains(err.Error(), "fault") {
		t.Fatalf("RunGrid accepted a shared fault: %v", err)
	}
}

// panicMod is a machine modifier that blows up inside the cell.
func panicMod(*pipeline.Config) { panic("modifier exploded") }

func TestGridIsolatesPanickingCell(t *testing.T) {
	cells := []GridCell{
		{Kernel: "gzip", Config: ConfRR256},
		{Kernel: "gzip", Config: ConfRR256, Mods: []MachineOption{panicMod}},
		{Kernel: "gzip", Config: ConfWSRSRC512},
	}
	res, err := RunGrid(cells, testOpts, 2)
	if err == nil {
		t.Fatal("grid with a panicking cell must fail")
	}
	var pe *CellPanicError
	if !errors.As(res[1].Err, &pe) {
		t.Fatalf("cell 1 error is %v, want *CellPanicError", res[1].Err)
	}
	if pe.Value != "modifier exploded" || pe.Stack == "" {
		t.Fatalf("panic not preserved: value=%v stack=%d bytes", pe.Value, len(pe.Stack))
	}
	if !strings.Contains(res[1].Err.Error(), "cell panicked") {
		t.Fatalf("panic error renders as %q", res[1].Err.Error())
	}
	// The surrounding cells complete normally.
	if res[0].Err != nil || res[2].Err != nil {
		t.Fatalf("healthy cells failed: %v / %v", res[0].Err, res[2].Err)
	}
	if res[0].Result.Insts == 0 || res[2].Result.Insts == 0 {
		t.Fatal("healthy cells committed nothing")
	}
}

func TestGridMultiFailureSummary(t *testing.T) {
	_, err := RunGrid([]GridCell{
		{Kernel: "nonesuch", Config: ConfRR256},
		{Kernel: "gzip", Config: ConfRR256},
		{Kernel: "gzip", Config: "bogus"},
	}, testOpts, 1)
	if err == nil {
		t.Fatal("grid with two broken cells must fail")
	}
	if !strings.Contains(err.Error(), "2 of 3 cells failed") {
		t.Fatalf("summary %q does not count the failures", err.Error())
	}
	if !strings.Contains(err.Error(), "nonesuch") {
		t.Fatalf("summary %q does not lead with the first failure", err.Error())
	}
}

func TestGridCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	opts := testOpts
	opts.Checkpoint = path
	cells := []GridCell{
		{Kernel: "gzip", Config: ConfRR256},
		{Kernel: "gzip", Config: ConfWSRSRC512},
	}
	first, err := RunGrid(cells, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i].Resumed {
			t.Fatalf("cell %d marked resumed on a cold run", i)
		}
	}

	// An interrupted run leaves a torn trailing line; the loader must
	// shrug it off and still restore the complete records.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"0|gzip|RR 2`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Second run: both finished cells restore, a new cell simulates.
	cells = append(cells, GridCell{Kernel: "gzip", Config: ConfWSRSRM512})
	second, err := RunGrid(cells, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if !second[i].Resumed {
			t.Fatalf("cell %d re-simulated despite the checkpoint", i)
		}
		if !reflect.DeepEqual(second[i].Result, first[i].Result) {
			t.Fatalf("cell %d restored result differs:\nfirst  %+v\nsecond %+v",
				i, first[i].Result, second[i].Result)
		}
	}
	if second[2].Resumed {
		t.Fatal("new cell wrongly restored from the checkpoint")
	}
	if second[2].Result.Insts == 0 {
		t.Fatal("new cell committed nothing")
	}

	// A different seed misses the checkpoint: cells re-simulate.
	opts.Seed = 99
	third, err := RunGrid(cells[:1], opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if third[0].Resumed {
		t.Fatal("seed change still hit the checkpoint")
	}
}

// TestGridCheckpointIdentity pins what the checkpoint store may and
// may not restore. Each case shares one store across two RunGrid
// calls; the second call must simulate whenever anything that shapes
// its result differs from the recorded cell, and resume otherwise.
func TestGridCheckpointIdentity(t *testing.T) {
	run := func(path string, cells []GridCell, opts SimOpts) GridResult {
		t.Helper()
		opts.Checkpoint = path
		out, err := RunGrid(cells, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	opts := SimOpts{WarmupInsts: 2000, MeasureInsts: 8000}

	t.Run("opaque mods", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "grid.ckpt")
		run(path, []GridCell{{Kernel: "gzip", Config: ConfWSRSRC512,
			Mods: []MachineOption{WithRenameImpl1(3)}}}, opts)
		cell := GridCell{Kernel: "gzip", Config: ConfWSRSRC512,
			Mods: []MachineOption{WithXClusterDelay(0)}}
		got := run(path, []GridCell{cell}, opts)
		if got.Resumed {
			t.Fatal("a cell with different unnamed mods was restored from the store")
		}
		want := run("", []GridCell{cell}, opts)
		if !reflect.DeepEqual(got.Result, want.Result) {
			t.Fatalf("result differs from a plain run:\ngot  %+v\nwant %+v", got.Result, want.Result)
		}
	})

	t.Run("telemetry", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "grid.ckpt")
		cells := []GridCell{{Kernel: "gzip", Config: ConfRR256}}
		run(path, cells, opts)
		tel := opts
		tel.Telemetry = true
		got := run(path, cells, tel)
		if got.Resumed || got.Result.Activity == nil {
			t.Fatalf("telemetry run resumed=%v activity=%v; want a fresh simulation with activity",
				got.Resumed, got.Result.Activity)
		}
	})

	t.Run("stats", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "grid.ckpt")
		cells := []GridCell{{Kernel: "gzip", Config: ConfRR256}}
		run(path, cells, opts)
		stats := opts
		stats.Stats = true
		if got := run(path, cells, stats); got.Result.Stalls == nil {
			t.Fatalf("stats run resumed=%v without a stall stack", got.Resumed)
		}
	})

	t.Run("named mods resume", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "grid.ckpt")
		mods, err := ParseMods("clusters=2")
		if err != nil {
			t.Fatal(err)
		}
		cells := []GridCell{{Kernel: "gzip", Config: ConfRR256, Policy: "RR",
			Mods: mods, ModsKey: "clusters=2"}}
		first := run(path, cells, opts)
		second := run(path, cells, opts)
		if !second.Resumed {
			t.Fatal("a cell with a ModsKey was not restored from the store")
		}
		if !reflect.DeepEqual(first.Result, second.Result) {
			t.Fatalf("restored result differs:\nfirst  %+v\nsecond %+v", first.Result, second.Result)
		}
	})
}
