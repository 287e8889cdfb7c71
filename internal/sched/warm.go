package sched

import (
	"encoding/json"
	"sync"
	"time"
)

// WarmEntry is the best stored checkpoint for one structure key: the
// donor job, its best cycle count, and the raw checkpoint payload. The
// payload is opaque to sched — the server decodes it with the mapper's
// Checkpoint codec and transfers only encodings (genotypes) into the new
// search, never fitness values, so a stale donor can cost generations
// but can never poison a result (see DESIGN.md §13).
type WarmEntry struct {
	Key        string
	JobID      string
	BestCycles float64
	Checkpoint json.RawMessage
	StoredAt   time.Time
}

// WarmStore is the warm-start library: for each structure-only canonical
// key (same operator graph shape and memory-level structure, any tensor
// sizes) it retains the checkpoint of the best-scoring finished search.
// It is an in-memory index rebuilt from the durable job store at open,
// so it needs no persistence of its own.
type WarmStore struct {
	mu      sync.Mutex
	entries map[string]WarmEntry
	hits    uint64
	misses  uint64
	puts    uint64
}

// NewWarmStore builds an empty library.
func NewWarmStore() *WarmStore {
	return &WarmStore{entries: map[string]WarmEntry{}}
}

// Put offers a finished search's checkpoint under key. It is installed
// only when the key is new or bestCycles beats the stored donor (ties
// keep the incumbent, so replays are order-insensitive for distinct
// scores and stable for equal ones). Returns whether it was installed.
// The library keeps the checkpoint's bytes without copying them, as the
// job store does, so the caller must never write into them afterwards.
func (w *WarmStore) Put(key, jobID string, bestCycles float64, checkpoint json.RawMessage, at time.Time) bool {
	if key == "" || len(checkpoint) == 0 || bestCycles <= 0 {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if cur, ok := w.entries[key]; ok && cur.BestCycles <= bestCycles {
		return false
	}
	w.entries[key] = WarmEntry{
		Key:        key,
		JobID:      jobID,
		BestCycles: bestCycles,
		Checkpoint: checkpoint[:len(checkpoint):len(checkpoint)],
		StoredAt:   at,
	}
	w.puts++
	return true
}

// Get looks up the best donor for key, counting hit/miss. The entry's
// checkpoint shares the library's bytes, capacity-capped so an append
// copies: read it, never write into it.
func (w *WarmStore) Get(key string) (WarmEntry, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.entries[key]
	if ok {
		w.hits++
	} else {
		w.misses++
	}
	return e, ok
}

// WarmStats is the metrics snapshot of the library.
type WarmStats struct {
	Entries int
	Hits    uint64
	Misses  uint64
	Puts    uint64
}

// Stats snapshots the counters.
func (w *WarmStore) Stats() WarmStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WarmStats{Entries: len(w.entries), Hits: w.hits, Misses: w.misses, Puts: w.puts}
}
