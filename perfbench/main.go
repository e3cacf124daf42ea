// Command perfbench is the repository's benchmark: one seeded
// workload per run against the public surfaces of the simulator
// (wsrs.RunGrid, the explore engine) and of the daemon (internal/serve
// over loopback HTTP), printing every metric by name and unit and
// checking that the outputs are correct.
//
//	go run . --workload grid-compute --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the JSON result: correct,
// attempted, failed and metrics (the end-to-end metrics with --trace
// 0, the per-layer metrics of a traced run with --trace 1). See
// README.md for the workloads and the definition of every metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"wsrs/internal/otrace"
)

// processStart stamps process start as seen by the benchmark (package
// variables initialize before main, after the runtime).
var processStart = time.Now()

// workers is the load shape of every workload: GOMAXPROCS, grid
// parallelism, daemon workers and client connections.
const workers = 2

var workloads = map[string]interface {
	run(seed int64, seconds float64, traced bool) (*outcome, error)
}{
	"grid-compute": gridWorkload{name: "grid-compute", kernels: computeKernels, exploreKernels: []string{"gzip", "crafty"}},
	"serve-mix":    serveWorkload{},
}

// outcome is one run's result.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e, layer        report
	notes             map[string]string
	digest            string
	rec               *otrace.Recorder // traced runs: the spans to export
	// keep selects the traces a traced run exports (nil keeps all):
	// serve-mix's daemon records every batch, only odd ones are traced.
	keep map[otrace.TraceID]bool
}

func newOutcome() *outcome {
	return &outcome{e2e: report{}, layer: report{}, notes: map[string]string{}}
}

// fail counts one failed operation and keeps its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// timing reports a latency distribution under prefix_p50_ms and
// prefix_p90_ms, noting the percentile actually used for the tail.
func (o *outcome) timing(prefix string, ms []float64) {
	t := summarize(ms)
	o.e2e[prefix+"_p50_ms"] = t.P50
	o.e2e[prefix+"_p90_ms"] = t.Tail
	o.notes[prefix+"_p50_ms"] = fmt.Sprintf("n=%d", t.N)
	o.notes[prefix+"_p90_ms"] = fmt.Sprintf("n=%d, reported percentile p%d", t.N, t.Pct)
}

// heapPeak samples the Go heap in use until stopped.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// host describes the machine and the load shape of a run.
type host struct {
	Nproc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GridWorkers   int    `json:"grid_workers"`
	DaemonWorkers int    `json:"daemon_workers"`
	ClientConns   int    `json:"client_conns"`
	GoVersion     string `json:"go_version"`
	CPU           string `json:"cpu_model"`
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	OverheadOnly  bool   `json:"overhead_only"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	workload := flag.String("workload", "", "workload to run: grid-compute or serve-mix")
	seed := flag.Int64("seed", defaultSeed, "workload seed: every input is generated from it")
	seconds := flag.Int("seconds", 50, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	traceOut := flag.String("trace-out", ".bench_build/traces", "directory the traced run writes its Chrome trace into")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace 0|1\n", strings.Join(names, ","))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workers)
	peak := startHeapPeak()

	h := host{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GridWorkers: workers,
		DaemonWorkers: workers, ClientConns: workers, GoVersion: runtime.Version(), CPU: cpuModel(),
		Workload: *workload, Seed: *seed, OverheadOnly: runtime.NumCPU() < workers}
	hb, _ := json.Marshal(h) // plain strings and numbers: cannot fail
	fmt.Printf("host %s\n", hb)
	if h.OverheadOnly {
		fmt.Printf("warning: %d CPUs for %d workers: results measure overhead only\n", h.Nproc, workers)
	}

	out, err := w.run(*seed, float64(*seconds), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *workload, err)
		os.Exit(1)
	}
	out.e2e["peak_heap_mb"] = peak.finish()

	fmt.Printf("workload %s seed %d: %d attempted, %d failed (%.2f%%), results digest %s\n",
		*workload, *seed, out.attempted, out.failed, 100*float64(out.failed)/float64(max(out.attempted, 1)), out.digest)
	for _, f := range out.failures {
		fmt.Printf("  failure: %s\n", f)
	}
	defs := endToEnd
	rep := out.e2e
	if *trace == 1 {
		defs, rep = perLayer, out.layer
		var spans []otrace.Span
		for _, sp := range out.rec.Snapshot() {
			if out.keep == nil || out.keep[sp.Trace] {
				spans = append(spans, sp)
			}
		}
		printSelfTable(os.Stdout, spans)
		if ev := out.rec.Total() - uint64(out.rec.Len()); ev > 0 {
			fmt.Printf("warning: %d spans evicted from the trace ring\n", ev)
		}
		path := filepath.Join(*traceOut, fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := writeChrome(path, spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
		} else {
			fmt.Printf("trace written to %s (Chrome trace-event JSON, loads in Perfetto)\n", path)
		}
	}
	rep.print(os.Stdout, defs, out.notes)

	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.failed == 0, max(out.attempted, 1), out.failed, rep.emit(defs)}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
