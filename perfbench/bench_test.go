package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"wsrs"
	"wsrs/internal/otrace"
	"wsrs/internal/serve"
)

func TestGeneratorDeterministic(t *testing.T) {
	for b := 0; b < 4; b++ {
		if !reflect.DeepEqual(genBatch(7, b), genBatch(7, b)) {
			t.Fatalf("batch %d: same seed gave different sequences", b)
		}
	}
	if reflect.DeepEqual(genBatch(7, 0), genBatch(8, 0)) {
		t.Fatal("different seeds gave the same sequence")
	}
}

func TestGeneratorShape(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		coalesced := map[string]int{}
		for b := 0; b < coldPerBatch/coalescePerBatch; b++ {
			seq := genBatch(seed, b)
			if len(seq) != batchLen {
				t.Fatalf("seed %d batch %d: %d requests, want %d", seed, b, len(seq), batchLen)
			}
			count := map[kind]int{}
			kernels := map[string]bool{}
			coalescing := 0
			prev := map[serve.CellSpec]bool{}
			if b > 0 {
				for _, c := range coldCells(seed, b-1) {
					prev[c] = true
				}
			}
			for j, r := range seq {
				count[r.Kind]++
				switch r.Kind {
				case kindCold:
					kernels[r.Cell.Kernel] = true
				case kindWarm:
					if r.Coalesce {
						coalesced[r.Cell.Kernel]++
						coalescing++
						if j == 0 || seq[j-1].Kind != kindCold || seq[j-1].Cell != r.Cell {
							t.Fatalf("seed %d batch %d: coalescing duplicate %d is not right behind its original", seed, b, j)
						}
						continue
					}
					earlier := false
					for _, o := range seq[:j] {
						earlier = earlier || (o.Kind == kindCold && o.Cell == r.Cell)
					}
					if !earlier && !prev[r.Cell] {
						t.Fatalf("seed %d batch %d: warm request %d duplicates no earlier cold cell", seed, b, j)
					}
				}
			}
			want := map[kind]int{kindCold: coldPerBatch, kindWarm: coalescePerBatch + hitPerBatch, kindExplore: explorePerBatch}
			if !reflect.DeepEqual(count, want) {
				t.Fatalf("seed %d batch %d: kinds %v, want %v", seed, b, count, want)
			}
			if len(kernels) != coldPerBatch {
				t.Fatalf("seed %d batch %d: cold cells cover %d kernels, want every one", seed, b, len(kernels))
			}
			if coalescing != coalescePerBatch {
				t.Fatalf("seed %d batch %d: %d coalescing duplicates, want %d", seed, b, coalescing, coalescePerBatch)
			}
		}
		for _, k := range allKernels() {
			if coalesced[k] != 1 {
				t.Fatalf("seed %d: kernel %s coalesced %d times in one rotation, want 1", seed, k, coalesced[k])
			}
		}
	}
}

func TestColdNamespacesDisjoint(t *testing.T) {
	owner := map[int64]int64{}
	for seed := int64(1); seed <= 8; seed++ {
		for b := 0; b < 50; b++ {
			for _, r := range genBatch(seed, b) {
				s := r.Cell.Seed
				if r.Kind == kindExplore {
					s = r.ExploreSeed
				} else if r.Kind == kindWarm {
					continue
				}
				if s <= 0 {
					t.Fatalf("seed %d batch %d: non-positive cell seed %d", seed, b, s)
				}
				if o, ok := owner[s]; ok {
					t.Fatalf("cell seed %d drawn by workload seeds %d and %d (or twice by one)", s, o, seed)
				}
				owner[s] = seed
			}
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct{ n, pct int }{
		{1000, 90}, {100, 90}, {99, 89}, {50, 80}, {30, 66}, {21, 52}, {20, 50}, {5, 50},
	} {
		if got := tailPct(tc.n); got != tc.pct {
			t.Errorf("tailPct(%d) = %d, want %d", tc.n, got, tc.pct)
		}
		// The chosen rank leaves at least ten samples above it.
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i)
		}
		above := 0
		v := percentile(xs, tailPct(tc.n))
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if tc.n >= 20 && above < 10 {
			t.Errorf("n=%d: %d samples above the reported percentile, want >= 10", tc.n, above)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || median([]float64{4, 1, 2, 3}) != 2.5 || percentile(xs, 100) != 5 || percentile(xs, 20) != 1 {
		t.Fatal("median/percentile disagree with nearest rank")
	}
}

func TestSelfTime(t *testing.T) {
	// root [0,100]: children a [10,30] and b [20,50] overlap, c
	// [90,120] overruns the parent; a's grandchild g [12,18] must
	// count against a only.
	sp := func(id, parent otrace.SpanID, start, end int64) otrace.Span {
		return otrace.Span{Trace: 1, ID: id, Parent: parent, Name: "s", Start: start, End: end}
	}
	spans := []otrace.Span{
		sp(1, 0, 0, 100), sp(2, 1, 10, 30), sp(3, 1, 20, 50), sp(4, 1, 90, 120), sp(5, 2, 12, 18),
	}
	got := selfTimes(spans)
	want := map[otrace.SpanID]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestDigestStable(t *testing.T) {
	cells := []wsrs.GridCell{{Kernel: "gzip", Config: wsrs.Figure4Configs()[0]}, {Kernel: "mcf", Config: wsrs.Figure4Configs()[5]}}
	run := func() string {
		wsrs.ResetTraceCache()
		out, err := wsrs.RunGrid(cells, wsrs.SimOpts{WarmupInsts: 1_000, MeasureInsts: 4_000, Seed: 3}, 2)
		if err != nil {
			t.Fatal(err)
		}
		d := newDigester()
		for _, c := range out {
			d.results(c.Result)
		}
		return d.sum()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same grid, different digests: %s vs %s", a, b)
	}
	d := newDigester()
	d.results(wsrs.Result{Cycles: 1})
	e := newDigester()
	e.results(wsrs.Result{Cycles: 2})
	if d.sum() == e.sum() {
		t.Fatal("digest ignores cycles")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the
// metrics the program emits in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, program emits %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, program emits %v", b.PerLayer, perLayer)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
		if d, err := recordedDigest(w.Name); err != nil || d == "" {
			t.Errorf("workload %q has no recorded digest (%v)", w.Name, err)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(b.Workloads), len(workloads))
	}
}
