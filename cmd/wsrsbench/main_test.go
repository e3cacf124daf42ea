package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"wsrs"
)

// TestMain lets the test binary stand in for the command: with
// WSRSBENCH_RUN_MAIN=1 in its environment it runs main on its
// arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("WSRSBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBench runs wsrsbench with args and returns its exit code.
func runBench(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WSRSBENCH_RUN_MAIN=1")
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0
}

func readManifest(t *testing.T, path string) wsrs.Manifest {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("run record not written: %v", err)
	}
	var m wsrs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFailedCellStillWritesManifest: a grid whose cells exhaust their
// cycle budget exits 1, but only after writing the manifest that
// records the failures and flushing the CPU profile.
func TestFailedCellStillWritesManifest(t *testing.T) {
	dir := t.TempDir()
	path, prof := filepath.Join(dir, "m.json"), filepath.Join(dir, "cpu.prof")
	code := runBench(t, "-exp", "figure4", "-kernels", "gzip", "-warmup", "1000", "-measure", "5000",
		"-max-cycles", "2000", "-manifest", path, "-cpuprofile", prof)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("CPU profile not flushed on failure (stat: %v)", err)
	}
	m := readManifest(t, path)
	if m.CellsTotal != len(wsrs.Figure4Configs()) || len(m.Cells) != m.CellsTotal || m.CellsFailed != m.CellsTotal {
		t.Fatalf("manifest records %d cells (%d listed, %d failed), want %d all failed",
			m.CellsTotal, len(m.Cells), m.CellsFailed, len(wsrs.Figure4Configs()))
	}
	for _, c := range m.Cells {
		if c.Error == "" {
			t.Errorf("cell %s/%s carries no error", c.Kernel, c.Config)
		}
	}
}

// TestConfigDigestCoversRunOptions: runs that differ only in
// -telemetry, -stats, -check or -max-cycles must not share a config
// digest.
func TestConfigDigestCoversRunOptions(t *testing.T) {
	dir := t.TempDir()
	digest := func(name string, extra ...string) string {
		path := filepath.Join(dir, name+".json")
		args := append([]string{"-exp", "figure4", "-kernels", "gzip", "-warmup", "500", "-measure", "1000",
			"-manifest", path}, extra...)
		if code := runBench(t, args...); code != 0 {
			t.Fatalf("%s: exit code %d", name, code)
		}
		return readManifest(t, path).ConfigDigest
	}
	plain, tel := digest("plain"), digest("telemetry", "-telemetry")
	if plain == tel {
		t.Errorf("runs with and without -telemetry share config digest %s", plain)
	}
	if again := digest("plain-again"); again != plain {
		t.Errorf("identical runs disagree on the config digest: %s vs %s", plain, again)
	}

	base := wsrs.SimOpts{WarmupInsts: 500, MeasureInsts: 1000, Seed: 1}
	seen := map[string]string{}
	for name, mod := range map[string]func(*wsrs.SimOpts){
		"plain":      func(*wsrs.SimOpts) {},
		"telemetry":  func(o *wsrs.SimOpts) { o.Telemetry = true },
		"stats":      func(o *wsrs.SimOpts) { o.Stats = true },
		"check":      func(o *wsrs.SimOpts) { o.Check = true },
		"max-cycles": func(o *wsrs.SimOpts) { o.MaxCycles = 2000 },
	} {
		o := base
		mod(&o)
		gt := wsrs.NewGridTelemetry()
		gt.Meta = runMeta(o, "gzip")
		d := gt.BuildManifest().ConfigDigest
		if other, dup := seen[d]; dup {
			t.Errorf("%s and %s share config digest %s", name, other, d)
		}
		seen[d] = name
	}
}
