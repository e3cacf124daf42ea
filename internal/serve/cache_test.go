package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wsrs"
	"wsrs/internal/cellcache"
)

func testID(seed int64) cellcache.CellID {
	return cellcache.CellID{Kernel: "gzip", Config: "RR 256", Seed: seed, Warmup: 1000, Measure: 5000}
}

func TestCellIDDigest(t *testing.T) {
	a, b := testID(1), testID(1)
	if a.Digest() != b.Digest() {
		t.Fatal("identical cells digest differently")
	}
	distinct := []cellcache.CellID{
		testID(2),
		{Kernel: "mcf", Config: "RR 256", Seed: 1, Warmup: 1000, Measure: 5000},
		{Kernel: "gzip", Config: "WSRR 384", Seed: 1, Warmup: 1000, Measure: 5000},
		{Kernel: "gzip", Config: "RR 256", Policy: "RM", Seed: 1, Warmup: 1000, Measure: 5000},
		{Kernel: "gzip", Config: "RR 256", Seed: 1, Warmup: 2000, Measure: 5000},
		{Kernel: "gzip", Config: "RR 256", Seed: 1, Warmup: 1000, Measure: 6000},
		{Kernel: "gzip", Config: "RR 256", Seed: 1, Warmup: 1000, Measure: 5000, Telemetry: true},
	}
	seen := map[string]bool{a.Digest(): true}
	for i, id := range distinct {
		d := id.Digest()
		if seen[d] {
			t.Fatalf("cell %d collides with an earlier digest", i)
		}
		seen[d] = true
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := cellcache.Open("", 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(1); s <= 4; s++ {
		c.Put(testID(s), wsrs.Result{Cycles: s})
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if _, ok := c.Get(testID(1).Digest()); ok {
		t.Fatal("oldest entry survived past the LRU cap")
	}
	// Touch 2, insert 5: 3 becomes the victim.
	if _, ok := c.Get(testID(2).Digest()); !ok {
		t.Fatal("entry 2 missing")
	}
	c.Put(testID(5), wsrs.Result{Cycles: 5})
	if _, ok := c.Get(testID(3).Digest()); ok {
		t.Fatal("LRU victim was not the least recently used entry")
	}
	if _, ok := c.Get(testID(2).Digest()); !ok {
		t.Fatal("recently touched entry was evicted")
	}
}

func TestCachePersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := cellcache.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(1); s <= 3; s++ {
		c.Put(testID(s), wsrs.Result{Cycles: 100 * s, IPC: float64(s)})
	}
	// Overwrite entry 2 — the reload must keep the newer record.
	c.Put(testID(2), wsrs.Result{Cycles: 999})
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := cellcache.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 3 {
		t.Fatalf("reloaded Len = %d, want 3", re.Len())
	}
	res, ok := re.Get(testID(2).Digest())
	if !ok || res.Cycles != 999 {
		t.Fatalf("reloaded entry 2 = %+v (ok=%v), want the overwrite", res, ok)
	}
}

func TestCacheToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := cellcache.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(testID(1), wsrs.Result{Cycles: 1})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a daemon killed mid-append.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"digest":"abc","cell":{"ker`)
	f.Close()

	re, err := cellcache.Open(path, 0)
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("Len over torn file = %d, want 1", re.Len())
	}
}

func TestCacheCompactionBoundsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := cellcache.Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(1); s <= 10; s++ {
		c.Put(testID(s), wsrs.Result{Cycles: s})
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := cellcache.Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("compacted cache reloads %d entries, want 2", re.Len())
	}
	for _, s := range []int64{9, 10} {
		if _, ok := re.Get(testID(s).Digest()); !ok {
			t.Fatalf("compaction dropped live entry seed=%d", s)
		}
	}
}
