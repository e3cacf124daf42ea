package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"wsrs/internal/otrace"
	"wsrs/internal/telemetry"
)

// selfTimes returns each span's self time in nanoseconds: its
// duration minus the part of its interval covered by its children
// (the union of the child intervals, clipped to the parent), so
// children that ran concurrently are not subtracted twice.
func selfTimes(spans []otrace.Span) map[otrace.SpanID]int64 {
	children := map[otrace.SpanID][]otrace.Span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := make(map[otrace.SpanID]int64, len(spans))
	for _, sp := range spans {
		out[sp.ID] = sp.Dur() - covered(sp.Start, sp.End, children[sp.ID])
	}
	return out
}

// covered measures the union of the child intervals inside [lo, hi].
func covered(lo, hi int64, kids []otrace.Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			total += v.b - v.a
			end = v.b
		}
	}
	return total
}

// selfByName sums self time per span name: the per-layer busy time
// table printed by the traced run.
func selfByName(spans []otrace.Span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, sp := range spans {
		out[sp.Name] += self[sp.ID]
	}
	return out
}

// printSelfTable writes the per-span-name self-time table, largest
// first.
func printSelfTable(w io.Writer, spans []otrace.Span) {
	by := selfByName(spans)
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]] > by[names[j]] })
	fmt.Fprintf(w, "self time by span (%d spans):\n", len(spans))
	for _, n := range names {
		fmt.Fprintf(w, "  %-26s %10.1f ms\n", n, float64(by[n])/1e6)
	}
}

// writeChrome exports the spans as Chrome trace-event JSON (loadable
// in Perfetto), one track per trace.
func writeChrome(path string, spans []otrace.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tids := map[otrace.TraceID]int{}
	evs := make([]telemetry.TraceEvent, 0, len(spans))
	for i := range spans {
		tid, ok := tids[spans[i].Trace]
		if !ok {
			tid = len(tids) + 1
			tids[spans[i].Trace] = tid
		}
		evs = append(evs, spans[i].TraceEvent(1, tid))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteTrace(f, evs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
