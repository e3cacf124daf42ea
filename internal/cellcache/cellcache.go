// Package cellcache is the one persisted store of per-cell simulation
// results: a content-addressed LRU keyed by the sha256 digest of a
// cell's identity, optionally backed by append-only JSONL. The wsrsd
// result cache (-cache), RunGrid's SimOpts.Checkpoint (wsrsbench
// -resume) and wsrsexplore -checkpoint all open it, so the three share
// one file format, one tolerance for torn tail lines and one digest
// re-check on load.
package cellcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"wsrs/internal/pipeline"
)

// CellID is the canonical identity of one simulation cell: everything
// that determines the cell's Result and can be named. It is the
// content address of the store — two cells with the same CellID are
// the same simulation.
type CellID struct {
	Kernel string `json:"kernel"`
	Config string `json:"config"`
	Policy string `json:"policy,omitempty"`
	// Mods is the canonical machine-modification string
	// (wsrs.ParseMods form, e.g. "clusters=2,width=2") applied on top
	// of the named configuration. Empty means the stock machine.
	Mods      string `json:"mods,omitempty"`
	Seed      int64  `json:"seed"`
	Warmup    uint64 `json:"warmup"`
	Measure   uint64 `json:"measure"`
	Telemetry bool   `json:"telemetry,omitempty"`
	// Stats marks a result carrying the per-cell stall stack
	// (wsrs.SimOpts.Stats).
	Stats bool `json:"stats,omitempty"`
}

// Digest returns the cell's content address: the hex sha256 of its
// canonical identity string. The encoding is positional and
// delimiter-separated (not JSON), so field order and omitempty can
// never split one identity into two addresses. Mods and Stats extend
// the encoding only when present, so every pre-existing entry keeps
// its address; canonical mods never contain '|', so the Stats suffix
// cannot alias a Mods string.
func (c CellID) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s|%d|%d|%d|%t",
		c.Kernel, c.Config, c.Policy, c.Seed, c.Warmup, c.Measure, c.Telemetry)
	if c.Mods != "" {
		fmt.Fprintf(h, "|%s", c.Mods)
	}
	if c.Stats {
		fmt.Fprint(h, "|stats")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// record is one persisted cell result, one JSON object per line: the
// content address, the identity it hashes, and the result.
type record struct {
	Digest string          `json:"digest"`
	Cell   CellID          `json:"cell"`
	Result pipeline.Result `json:"result"`
}

// Cache is an in-memory LRU over completed cell results, optionally
// persisted as append-only JSONL so a restarted daemon resumes warm
// and an interrupted grid resumes where it stopped. All methods are
// safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used; values are *record
	entries map[string]*list.Element

	path string
	w    io.WriteCloser
	werr error // first append failure, surfaced on Close
}

// Open builds a result cache holding at most max entries (max <= 0
// selects 4096). A non-empty path persists the cache as JSONL:
// existing records are loaded (later lines win; torn trailing lines
// from a killed process and records that do not hash to their digest
// are skipped) and new results are appended as they complete. Close
// compacts the file down to the live entries.
func Open(path string, max int) (*Cache, error) {
	if max <= 0 {
		max = 4096
	}
	c := &Cache{
		max:     max,
		ll:      list.New(),
		entries: map[string]*list.Element{},
		path:    path,
	}
	if path == "" {
		return c, nil
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("cellcache: %w", err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec record
		if json.Unmarshal(line, &rec) != nil || rec.Digest == "" {
			continue
		}
		// A record must hash to the address it claims: a line truncated
		// by a short write (or merged with a torn neighbour) that still
		// parses as JSON is rejected here, so the cache can never serve
		// a corrupt entry as a valid result.
		if rec.Cell.Digest() != rec.Digest {
			continue
		}
		c.put(rec)
	}
	c.w, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cellcache: %w", err)
	}
	return c, nil
}

// Degraded reports whether persistence failed and was switched off:
// the cache keeps serving from memory (pass-through for new entries)
// but appends nothing further. The first error surfaces on Close.
func (c *Cache) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.werr != nil
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Get returns the cached result for a content address, refreshing its
// LRU position.
func (c *Cache) Get(digest string) (pipeline.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[digest]
	if !ok {
		return pipeline.Result{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*record).Result, true
}

// Put stores one completed cell result and appends it to the
// persistence file when one is open. The first write error (disk
// full, short write) degrades the cache to pass-through: the append
// stream is closed, nothing further is persisted — a partial line can
// never be extended into a plausible-looking record — and the error
// is remembered and surfaced on Close, so a sick disk cannot fail a
// healthy job mid-flight.
func (c *Cache) Put(id CellID, res pipeline.Result) {
	rec := record{Digest: id.Digest(), Cell: id, Result: res}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(rec)
	if c.w != nil {
		line, err := json.Marshal(rec)
		if err != nil {
			return
		}
		if _, err := c.w.Write(append(line, '\n')); err != nil {
			c.werr = err
			_ = c.w.Close()
			c.w = nil
		}
	}
}

// put inserts under the lock, evicting from the LRU tail past max.
func (c *Cache) put(rec record) {
	if el, ok := c.entries[rec.Digest]; ok {
		el.Value = &rec
		c.ll.MoveToFront(el)
		return
	}
	c.entries[rec.Digest] = c.ll.PushFront(&rec)
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.entries, tail.Value.(*record).Digest)
	}
}

// Close flushes the cache: when persisting, the append-only file is
// compacted to exactly the live entries (least recently used first,
// so a reload replays into the same LRU order) via a temp-file
// rename. A degraded cache (an earlier append failed) skips the
// compaction — the disk is suspect, and the atomic-rename compaction
// must never replace the intact prefix with a partial rewrite — and
// returns that first append error.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.werr != nil {
		return c.werr
	}
	if c.w == nil {
		return nil
	}
	werr := c.w.Close()
	c.w = nil
	tmp := c.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return firstErr(werr, err)
	}
	enc := json.NewEncoder(f)
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		if err := enc.Encode(el.Value.(*record)); err != nil {
			f.Close()
			os.Remove(tmp)
			return firstErr(werr, err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return firstErr(werr, err)
	}
	return firstErr(werr, os.Rename(tmp, c.path))
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
