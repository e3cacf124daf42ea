package cellcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wsrs/internal/pipeline"
)

func testID(seed int64) CellID {
	return CellID{Kernel: "gzip", Config: "RR 256", Seed: seed, Warmup: 1000, Measure: 5000}
}

// TestDigestPinned pins content addresses to the values the store has
// always written, so existing -cache and -resume files and the fleet's
// consistent-hash routing stay valid: the digest of an identity must
// never change. Stats joins the encoding only when set.
func TestDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		id   CellID
		want string
	}{
		{CellID{Kernel: "gzip", Config: "RR 256", Seed: 1, Warmup: 1000, Measure: 5000},
			"814fdfe688f99f394aa065db2aedb4e08b5cd476501a6bc192ac56cb0de0333a"},
		{CellID{Kernel: "gzip", Config: "WSRS RC S 512", Policy: "RM", Mods: "clusters=2,width=2",
			Seed: 7, Warmup: 2000, Measure: 10000},
			"6a13d8291c853c93511449f7a1db031c66e634fe4a8cb7a8c03ba3b3520f6196"},
		{CellID{Kernel: "mcf", Config: "WSRS RC S 512", Seed: 1, Warmup: 2000, Measure: 10000, Telemetry: true},
			"8fc529bc6862603ca63385f6d89e76636ae9e91cbd009d1d228170b98701e0f0"},
	} {
		if got := tc.id.Digest(); got != tc.want {
			t.Errorf("%+v digests to %s, want %s", tc.id, got, tc.want)
		}
		stats := tc.id
		stats.Stats = true
		if stats.Digest() == tc.want {
			t.Errorf("%+v: Stats=true does not change the digest", tc.id)
		}
	}
}

// failingWriter fails every write after the first okBytes bytes —
// disk-full and short-write in one: the first failing write may land
// a partial line.
type failingWriter struct {
	f       *os.File
	okBytes int
	written int
	closed  bool
}

func (w *failingWriter) Write(p []byte) (int, error) {
	room := w.okBytes - w.written
	if room >= len(p) {
		w.written += len(p)
		return w.f.Write(p)
	}
	if room > 0 {
		w.written += room
		w.f.Write(p[:room]) // the short write: a torn partial line
	}
	return room, fmt.Errorf("disk full")
}

func (w *failingWriter) Close() error { w.closed = true; return w.f.Close() }

// TestCacheWriteErrorDegradesToPassThrough is the disk-full
// contract: the first append failure switches persistence off, the
// cache keeps serving (and accepting) entries from memory, Close
// surfaces the error without compacting over the intact prefix, and a
// reload serves only complete, digest-verified records — never the
// torn one.
func TestCacheWriteErrorDegradesToPassThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Measure one full record so the failure lands mid-line of the
	// second: one intact line plus a torn partial.
	rec, _ := json.Marshal(record{Digest: testID(1).Digest(), Cell: testID(1), Result: pipeline.Result{Cycles: 1}})
	f := c.w.(*os.File)
	fw := &failingWriter{f: f, okBytes: len(rec) + 1 + 10}
	c.w = fw

	c.Put(testID(1), pipeline.Result{Cycles: 1}) // persists fully
	if c.Degraded() {
		t.Fatal("cache degraded before any write failed")
	}
	c.Put(testID(2), pipeline.Result{Cycles: 2}) // torn: 10 bytes then failure
	if !c.Degraded() {
		t.Fatal("write failure did not degrade the cache")
	}
	if !fw.closed {
		t.Fatal("degrading did not close the append stream")
	}

	// Pass-through: the cache still serves and accepts from memory.
	for s := int64(1); s <= 3; s++ {
		c.Put(testID(s), pipeline.Result{Cycles: s})
		if res, ok := c.Get(testID(s).Digest()); !ok || res.Cycles != s {
			t.Fatalf("degraded cache lost entry %d (ok=%v res=%+v)", s, ok, res)
		}
	}

	if err := c.Close(); err == nil {
		t.Fatal("Close swallowed the append error")
	}

	// The reload serves the intact record and nothing torn.
	re, err := Open(path, 0)
	if err != nil {
		t.Fatalf("reopen after degrade: %v", err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("reloaded %d entries, want exactly the 1 intact record", re.Len())
	}
	if res, ok := re.Get(testID(1).Digest()); !ok || res.Cycles != 1 {
		t.Fatalf("intact record lost: ok=%v res=%+v", ok, res)
	}
	if _, ok := re.Get(testID(2).Digest()); ok {
		t.Fatal("a truncated entry was served")
	}
}

// TestCacheLoadRejectsForgedDigest: a record whose content does not
// hash to the address it claims (bit rot, a torn line merged with its
// neighbour) must be dropped on load, not served.
func TestCacheLoadRejectsForgedDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	good, _ := json.Marshal(record{Digest: testID(1).Digest(), Cell: testID(1), Result: pipeline.Result{Cycles: 1}})
	forged, _ := json.Marshal(record{Digest: testID(2).Digest(), Cell: testID(3), Result: pipeline.Result{Cycles: 666}})
	if err := os.WriteFile(path, []byte(string(good)+"\n"+string(forged)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 1 {
		t.Fatalf("loaded %d entries, want 1 (forged digest rejected)", c.Len())
	}
	if _, ok := c.Get(testID(2).Digest()); ok {
		t.Fatal("forged record served under its claimed digest")
	}
}
