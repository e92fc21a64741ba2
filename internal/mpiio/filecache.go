package mpiio

import (
	"sort"
	"sync"

	"drxmp/internal/extent"
	"drxmp/internal/pfs"
	"drxmp/internal/spill"
)

// Unified per-file extent cache: the write-behind machinery of PR 4
// (dirty extents absorbed from collective writes, flushed in vectored
// pfs.FlushV sweeps) generalized into ONE cache holding clean and
// dirty extents, so the same data structure serves both directions of
// the out-of-core access pattern — deferred writes out, data-sieved
// reads in.
//
//   - Dirty extents are deferred collective-write bytes (File.WriteBehind).
//     They flush on the watermark, Sync, Close, read coherence (when
//     clean caching is off), or budget-pressure eviction.
//   - Clean extents are sieve-block read fetches (File.CacheBytes > 0):
//     a read fetches the covering extent rounded to sieve-aligned
//     blocks as one vectored pfs.SieveReadV, serves the caller from it,
//     and keeps it so hole-free re-reads come from memory. Read-ahead
//     (File.ReadAhead) extends each fetch past the requested range so
//     a sectioned forward scan finds its next block already cached.
//
// Invariants and coherence (generalizing the PR 4 rules):
//
//   - The cache is SHARED by every handle opened on the same pfs.FS
//     (one cache per file): aggregators on every rank absorb into it,
//     reads through any rank's handle observe every rank's deferred
//     bytes, and a sieve block fetched by one rank warms every rank.
//   - Extents are sorted by offset and pairwise disjoint. Dirty extents
//     are additionally non-adjacent to each other (absorbs merge);
//     clean extents may sit adjacent to anything.
//   - Writes PUNCH overlapping extents of either color — stale clean
//     data may not survive the write that superseded it, exactly as
//     stale dirty data may not (collective writes punch their global
//     union once via PunchOnce, independent writes punch their runs).
//   - Reads with clean caching enabled go through ReadThrough, which
//     serves dirty bytes straight from memory — no coherence flush is
//     needed because a flush never removes data from a caching cache:
//     FlushAll/FlushIntersecting write the dirty bytes back and mark
//     the extents clean IN PLACE, so there is no window where a byte
//     is in neither the cache nor the store. With clean caching off
//     (budget 0) the cache degenerates to the PR 4 write-behind cache:
//     reads flush intersecting dirty extents and go to the store, and
//     flushes remove what they wrote (flushMu closes the window).
//   - The memory budget (CacheBytes) caps the TOTAL cached bytes.
//     Over budget, clean extents evict in LRU order; if the dirty
//     bytes alone exceed the budget, the least-recently-used dirty
//     extents flush-on-evict through the same vectored pfs.FlushV
//     sweep and then evict as clean.
//   - A generation counter (bumped by every punch and absorb) guards
//     sieve fetches: a fetch that raced a write serves its caller but
//     does not insert, so pre-write store bytes can never enter the
//     cache as clean.
//
// Tiering (PR 9): with Tuning.SpillBytes set, eviction DEMOTES instead
// of dropping — clean victims (and, under dirty-only budget pressure,
// LRU dirty extents) move to a local-disk spill tier (internal/spill),
// and ReadThrough consults memory → spill → pfs, promoting spill hits
// back into memory under the same LRU. The tiers stay disjoint: an
// offset is covered by at most one tier (demote and promote move
// extents under one mu critical section; spill.Put punches its own
// overlaps; every cache punch punches both tiers), so the fetch
// planner can treat "memory ∪ spill coverage" as THE cached set and
// clip speculative sieve/read-ahead fetches against it — a stale store
// byte must never shadow a newer spilled byte. Dirty bytes in the
// spill tier still count toward Bytes() (the write-behind watermark)
// and flush in the same vectored FlushV sweep as the memory tier's
// (CollectDirty reads them back, MarkClean settles them by entry id so
// a mid-sweep punch keeps its remainder dirty).

// cext is one cached byte range and its buffered data
// (len(data) == length of the range).
type cext struct {
	off   int64
	data  []byte
	dirty bool
	use   int64 // LRU stamp (fileCache.clock at last touch)
}

func (e *cext) end() int64 { return e.off + int64(len(e.data)) }

// CacheStats is the cumulative accounting of a file's extent cache
// (never reset; Sub snapshots for phase measurement).
type CacheStats struct {
	Absorbed     int64 // dirty bytes absorbed from collective writes
	Flushes      int64 // flush sweeps issued
	OwnedFlushes int64 // elected per-region flush sweeps (subset of Flushes)
	Hits         int64 // ReadThrough calls served entirely from memory
	Misses       int64 // ReadThrough calls that fetched at least one hole
	HitBytes     int64 // bytes served from cached extents
	MissBytes    int64 // requested bytes that had to be fetched
	SieveFetched int64 // bytes fetched by sieve reads (>= MissBytes: rounding + read-ahead)
	Evicted      int64 // clean bytes evicted by the memory budget
	FlushEvicted int64 // dirty bytes flushed by budget pressure

	// Spill tier (all zero when Tuning.SpillBytes is 0).
	SpillDemoted  int64 // bytes demoted from memory into the spill tier
	SpillPromoted int64 // bytes promoted back from the spill tier
	SpillHits     int64 // ReadThrough calls served partly from the spill tier
	SpillHitBytes int64 // requested bytes that hit the spill tier
	SpillRejected int64 // demotions the spill tier refused (budget/disk)
	SpillUsed     int64 // gauge: live spilled bytes right now
	SpillDirty    int64 // gauge: dirty spilled bytes right now

	SieveSize      int64 // gauge: sieve block size in effect
	ReadAheadBytes int64 // gauge: read-ahead in effect
}

// Sub returns s - t field-wise for the cumulative counters; the gauges
// (SpillUsed, SpillDirty, SieveSize, ReadAheadBytes) keep s's current
// values — a delta of an instantaneous reading is meaningless.
func (s CacheStats) Sub(t CacheStats) CacheStats {
	return CacheStats{
		Absorbed:     s.Absorbed - t.Absorbed,
		Flushes:      s.Flushes - t.Flushes,
		OwnedFlushes: s.OwnedFlushes - t.OwnedFlushes,
		Hits:         s.Hits - t.Hits,
		Misses:       s.Misses - t.Misses,
		HitBytes:     s.HitBytes - t.HitBytes,
		MissBytes:    s.MissBytes - t.MissBytes,
		SieveFetched: s.SieveFetched - t.SieveFetched,
		Evicted:      s.Evicted - t.Evicted,
		FlushEvicted: s.FlushEvicted - t.FlushEvicted,

		SpillDemoted:  s.SpillDemoted - t.SpillDemoted,
		SpillPromoted: s.SpillPromoted - t.SpillPromoted,
		SpillHits:     s.SpillHits - t.SpillHits,
		SpillHitBytes: s.SpillHitBytes - t.SpillHitBytes,
		SpillRejected: s.SpillRejected - t.SpillRejected,
		SpillUsed:     s.SpillUsed,
		SpillDirty:    s.SpillDirty,

		SieveSize:      s.SieveSize,
		ReadAheadBytes: s.ReadAheadBytes,
	}
}

// fileCache is the shared per-file extent cache. All methods are safe
// for concurrent use (every rank's handle, and the close-flusher the
// cache registers with the pfs store, share it).
//
// Lock order: flushMu before mu, never the reverse. flushMu serializes
// flush sweeps END TO END; in wb-only mode (no clean caching) it
// additionally closes the removed-but-not-yet-written window exactly
// as in PR 4 — a reader's FlushIntersecting blocks until the in-flight
// sweep is durable.
type fileCache struct {
	fs *pfs.FS

	flushMu sync.Mutex // serializes flush sweeps (see above)

	mu       sync.Mutex
	ext      []*cext // sorted by off, pairwise disjoint
	dirty    int64   // buffered dirty bytes
	total    int64   // buffered bytes, clean + dirty
	arrivals int     // ranks arrived at PunchOnce in this collective
	gen      int64   // bumped by every punch/absorb (sieve-insert guard)
	clock    int64   // LRU clock

	// Policy (Configure): shared, so every handle on the store must
	// agree — the same rule as every other collective knob.
	budget    int64 // max total bytes; 0 disables clean caching (wb-only)
	sieve     int64 // sieve block size; 0 = stripe size
	readAhead int64 // extra fetch bytes past each miss; 0 = none

	// Spill tier. spill stays nil until a Configure with positive
	// spillBytes (and an active budget) opens it; spillErr is the sticky
	// open failure, retried only when the spill config changes.
	spill      *spill.Store
	spillBytes int64
	spillPath  string
	spillErr   error

	stats CacheStats
}

// cacheConfig is the policy block Configure installs — the cache-side
// projection of drxmp.Tuning. Handles re-apply it on every resolve;
// every rank must agree (last writer wins).
type cacheConfig struct {
	budget     int64 // memory budget; 0 disables clean caching
	sieve      int64 // sieve block; 0 = stripe size
	readAhead  int64 // read-ahead; 0 = none
	spillBytes int64 // spill-tier budget; 0 disables the tier
	spillPath  string
}

func newFileCache(fs *pfs.FS) *fileCache {
	return &fileCache{fs: fs}
}

// fcAuxKey is the cache's slot in the store's Aux map — per-store
// state, so the cache's lifetime is exactly the store's.
const fcAuxKey = "mpiio.filecache"

// sharedFileCache returns the store's shared cache, creating it (and
// registering its flush-before-drain hook with FS.Close) on first use.
func sharedFileCache(fs *pfs.FS) *fileCache {
	return fs.Aux(fcAuxKey, func() any {
		w := newFileCache(fs)
		// The ordering guarantee on FS.Close: the cache drains through
		// the still-open queues before Close drains them (and only then
		// releases its spill file — the sweep reads dirty bytes back
		// from it).
		fs.AddCloseFlusher(w.closeHook)
		return w
	}).(*fileCache)
}

// lookupFileCache returns the store's shared cache without creating one.
func lookupFileCache(fs *pfs.FS) *fileCache {
	if v := fs.AuxLookup(fcAuxKey); v != nil {
		return v.(*fileCache)
	}
	return nil
}

// closeHook is the cache's FS.Close flusher: drain every deferred byte
// of both tiers (FlushAll's sweep reads dirty spilled bytes back from
// the spill file), then release the spill file itself, so a closed
// store never leaks a local temp file.
func (w *fileCache) closeHook() error {
	err := w.FlushAll()
	w.mu.Lock()
	sp := w.spill
	w.spill = nil
	w.mu.Unlock()
	if sp != nil {
		if cerr := sp.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Configure installs the cache policy. Handles re-apply their knobs on
// every resolve; every rank must use the same values (last writer
// wins). Dropping the budget to 0 returns the cache to wb-only mode
// and releases every clean extent. A positive spillBytes (with an
// active budget) opens the spill tier on first application; an open
// failure is sticky (SpillErr) until the spill config changes.
// Disabling the tier releases the spill file once nothing dirty
// remains inside (ApplyTuning flushes before disabling, so that is
// immediate on the tuning path).
func (w *fileCache) Configure(cfg cacheConfig) {
	w.mu.Lock()
	defer w.mu.Unlock()
	budget := cfg.budget
	w.budget, w.sieve, w.readAhead = cfg.budget, cfg.sieve, cfg.readAhead
	if cfg.spillBytes != w.spillBytes || cfg.spillPath != w.spillPath {
		w.spillErr = nil // config changed: a failed open may retry
		if w.spill != nil && w.spill.Dirty() == 0 {
			w.spill.Close()
			w.spill = nil
		}
	}
	w.spillBytes, w.spillPath = cfg.spillBytes, cfg.spillPath
	if w.spillBytes > 0 && w.budget > 0 {
		if w.spill == nil && w.spillErr == nil {
			w.spill, w.spillErr = spill.Open(w.spillPath, w.spillBytes)
		}
	} else if w.spill != nil && w.spill.Dirty() == 0 {
		w.spill.Close()
		w.spill = nil
	}
	if budget <= 0 {
		keep := w.ext[:0]
		for _, e := range w.ext {
			if e.dirty {
				keep = append(keep, e)
			} else {
				w.total -= int64(len(e.data))
				w.stats.Evicted += int64(len(e.data))
			}
		}
		w.ext = keep
	}
}

// caching reports whether clean-extent caching (data sieving) is on.
func (w *fileCache) caching() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.budget > 0
}

// SpillErr returns the sticky spill-tier open failure, if any — the
// handle surfaces it through ApplyTuning so a bad SpillPath fails the
// open/SetTuning call instead of silently degrading.
func (w *fileCache) SpillErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.spillErr
}

// sieveSize resolves the sieve block granularity (the configured
// value, else the stripe size). Must be called with w.mu held.
func (w *fileCache) sieveSize() int64 {
	if w.sieve > 0 {
		return w.sieve
	}
	return w.fs.StripeSize()
}

// Bytes returns the currently buffered dirty bytes — BOTH tiers, so
// the write-behind watermark counts every deferred byte no matter
// where it is staged.
func (w *fileCache) Bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	d := w.dirty
	if w.spill != nil {
		d += w.spill.Dirty()
	}
	return d
}

// Cached returns the currently buffered total bytes (clean + dirty).
func (w *fileCache) Cached() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// Stats returns a snapshot of the cumulative cache accounting, with
// the gauge fields (spill occupancy, sieve/read-ahead in effect)
// filled from the current state.
func (w *fileCache) Stats() CacheStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.stats
	st.SieveSize = w.sieveSize()
	st.ReadAheadBytes = w.readAhead
	if w.spill != nil {
		st.SpillUsed = w.spill.Used()
		st.SpillDirty = w.spill.Dirty()
	}
	return st
}

// Absorb merges the dirty run [off, off+len(p)) into the cache,
// last-writer-wins where it overlaps existing extents: overlapping
// clean ranges are punched (the write supersedes them), overlapping or
// adjacent dirty extents merge. The cache may alias p (callers hand
// over staging buffers they will not reuse). Callers grow the cache;
// they must follow up with EnforceBudget.
func (w *fileCache) Absorb(off int64, p []byte) {
	if len(p) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stats.Absorbed += int64(len(p))
	w.gen++
	w.clock++
	end := off + int64(len(p))
	w.punchLocked(off, end-off, true)
	// [i, j) is the range of dirty extents overlapping or adjacent to
	// the run. Clean extents cannot overlap it (just punched) but may
	// touch its boundaries; they stay out of the merge.
	i := sort.Search(len(w.ext), func(k int) bool { return w.ext[k].end() >= off })
	if i < len(w.ext) && !w.ext[i].dirty && w.ext[i].end() == off {
		i++ // left-adjacent clean extent: not merged
	}
	j := i
	for j < len(w.ext) && w.ext[j].off <= end {
		j++
	}
	if j > i && !w.ext[j-1].dirty && w.ext[j-1].off == end {
		j-- // right-adjacent clean extent: not merged
	}
	if i == j {
		// Disjoint from all dirty extents: plain insert.
		w.insertAtLocked(i, &cext{off: off, data: p, dirty: true, use: w.clock})
		w.dirty += int64(len(p))
		w.total += int64(len(p))
		return
	}
	lo, hi := off, end
	if w.ext[i].off < lo {
		lo = w.ext[i].off
	}
	if e := w.ext[j-1].end(); e > hi {
		hi = e
	}
	merged := make([]byte, hi-lo)
	var old int64
	for _, e := range w.ext[i:j] {
		copy(merged[e.off-lo:], e.data)
		old += int64(len(e.data))
	}
	copy(merged[off-lo:], p) // new data last: last writer wins
	w.ext = append(w.ext[:i], append([]*cext{{off: lo, data: merged, dirty: true, use: w.clock}}, w.ext[j:]...)...)
	w.dirty += int64(len(merged)) - old
	w.total += int64(len(merged)) - old
}

// insertAtLocked inserts e at position i of the sorted extent list.
func (w *fileCache) insertAtLocked(i int, e *cext) {
	w.ext = append(w.ext, nil)
	copy(w.ext[i+1:], w.ext[i:])
	w.ext[i] = e
}

// PunchOnce punches every run of a collective write's global union,
// exactly once per collective: every rank calls it (in lockstep
// program order, before its exchange phase) with the communicator
// size, the FIRST arrival executes the punch, and later arrivals —
// which may already have raced past other ranks' absorbs — are
// no-ops; the nranks-th arrival resets the counter for the next
// collective. Arrival counting needs no per-handle state, so handles
// opened at different times on the same store stay correct. It relies
// on collectives being serialized per file (every rank leaves
// collective k through its agreement round before any enters k+1), so
// arrivals of different collectives never interleave. The guard and
// the punches form ONE critical section: a skipped rank may proceed
// straight to its absorb, and the executed punch must be complete —
// not in flight — by then, or it would destroy freshly absorbed
// bytes.
func (w *fileCache) PunchOnce(nranks int, runs []pfs.Run) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.arrivals == 0 {
		for _, r := range runs {
			w.punchLocked(r.Off, r.Len, false)
		}
	}
	w.arrivals++
	if w.arrivals >= nranks {
		w.arrivals = 0
	}
}

// Punch discards cached bytes in [off, off+n), clean and dirty alike:
// extents fully inside are dropped, extents straddling a boundary are
// trimmed or split. Used by collective writes (PunchOnce: the global
// union is about to be re-absorbed or rewritten) and independent
// writes (the file copy is about to become newer than the cache).
func (w *fileCache) Punch(off, n int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.punchLocked(off, n, false)
}

// punchLocked removes [off, off+n) from the cached extents; cleanOnly
// restricts it to clean extents (the absorb path, which merges dirty
// overlaps itself). Untouched extents keep their identity (pointer),
// which the flush paths rely on; trimmed remainders are new extents.
func (w *fileCache) punchLocked(off, n int64, cleanOnly bool) {
	if n <= 0 {
		return
	}
	w.gen++
	// Every punch means "this range is about to be superseded", so the
	// spill tier loses it too — all colors even on the cleanOnly path
	// (an absorb's new dirty bytes supersede older spilled dirty bytes
	// exactly as they supersede clean ones; the memory-side dirty
	// overlap is what merges, and it is never in the spill tier at the
	// same time).
	if w.spill != nil {
		w.spill.Punch(off, n)
	}
	end := off + n
	var out []*cext
	for _, e := range w.ext {
		if e.end() <= off || e.off >= end || (cleanOnly && e.dirty) {
			out = append(out, e)
			continue
		}
		sub := func(x int64) {
			w.total -= x
			if e.dirty {
				w.dirty -= x
			}
		}
		sub(int64(len(e.data)))
		if e.off < off { // keep the left remainder
			left := &cext{off: e.off, data: e.data[:off-e.off], dirty: e.dirty, use: e.use}
			sub(-int64(len(left.data)))
			out = append(out, left)
		}
		if e.end() > end { // keep the right remainder
			right := &cext{off: end, data: e.data[end-e.off:], dirty: e.dirty, use: e.use}
			sub(-int64(len(right.data)))
			out = append(out, right)
		}
	}
	w.ext = out
}

// flushSel selects the victims of one flush sweep: every dirty extent
// (the zero value), the dirty extents overlapping runs (overlap set),
// or the dirty extents whose start offset owned claims (owned set — an
// elected per-region sweep, which also restricts the spill-tier chunks
// that join it).
type flushSel struct {
	overlap bool
	runs    []pfs.Run // sorted and coalesced
	owned   func(off int64) bool
}

// FlushAll writes every dirty extent back as one vectored flush sweep.
// With clean caching on, the flushed extents stay in the cache marked
// clean (a Sync leaves the cache warm); in wb-only mode they are
// removed, as in PR 4. A cache with nothing dirty is a no-op.
func (w *fileCache) FlushAll() error { return w.flush(flushSel{}) }

// FlushIntersecting writes back exactly the dirty extents that overlap
// any of runs — the read-coherence sweep of wb-only mode. Extents
// outside the queried ranges stay buffered.
func (w *fileCache) FlushIntersecting(runs []pfs.Run) error {
	return w.flush(flushSel{overlap: true, runs: runs})
}

// FlushOwned writes back exactly the dirty extents starting in a file
// region the predicate claims — the elected per-region flush sweep.
// Region ownership partitions the file, so concurrent elected sweeps
// from different ranks have disjoint victim sets: each region is swept
// by exactly one flusher, and a sweep is a full contiguous slab of that
// rank's absorbed regions instead of an interleaved snapshot of
// everyone's. An extent that merged across a region boundary belongs to
// the region its first byte lies in (flushing a tail early is always
// safe).
func (w *fileCache) FlushOwned(owned func(off int64) bool) error {
	return w.flush(flushSel{owned: owned})
}

// victimsLocked returns the dirty extents sel picks, in offset order
// (the overlap selector is a two-pointer merge over the two sorted
// lists). Must be called with w.mu held.
func (w *fileCache) victimsLocked(sel flushSel) []*cext {
	var out []*cext
	j := 0
	for _, e := range w.ext {
		if !e.dirty {
			continue
		}
		switch {
		case sel.owned != nil:
			if !sel.owned(e.off) {
				continue
			}
		case sel.overlap:
			for j < len(sel.runs) && sel.runs[j].Off+sel.runs[j].Len <= e.off {
				j++
			}
			if j == len(sel.runs) || sel.runs[j].Off >= e.end() {
				continue
			}
		}
		out = append(out, e)
	}
	return out
}

// flush is the one flush sweep behind FlushAll, FlushIntersecting and
// FlushOwned. With clean caching on, the victims are written and then
// marked clean IN PLACE (flushCleanLocked), so there is no window where
// a byte is in neither the cache nor the store. In wb-only mode they
// are removed first and written after; holding flushMu for the whole
// sweep means a reader whose coherence check races another flush
// blocks until that flush's bytes are durable, instead of reading the
// store in the removed-but-not-yet-written window. A failed wb-only
// sweep puts the removed bytes back (restoreDirty).
func (w *fileCache) flush(sel flushSel) error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	victims := w.victimsLocked(sel)
	if len(victims) == 0 && (w.spill == nil || w.spill.Dirty() == 0) {
		w.mu.Unlock()
		return nil
	}
	if sel.owned != nil {
		w.stats.OwnedFlushes++
	}
	if w.budget > 0 {
		// The caching sweep also drains the spill tier's dirty bytes
		// (all of them unless the sweep is elected — flushing deferred
		// bytes early is always safe, and it keeps the sweep one
		// vectored FlushV).
		return w.flushCleanLocked(victims, sel.owned) // unlocks w.mu
	}
	for _, e := range victims {
		w.dirty -= int64(len(e.data))
		w.total -= int64(len(e.data))
	}
	w.dropLocked(victims)
	if len(victims) > 0 {
		w.stats.Flushes++
	}
	w.mu.Unlock()
	if err := w.flushExtents(victims, nil); err != nil {
		w.restoreDirty(victims)
		return err
	}
	return nil
}

// restoreDirty reinserts extents that a wb-only flush removed from the
// cache before its FlushV sweep failed, so the dirty bytes survive for
// a retry. Each extent's bytes return dirty only where the cache is
// currently uncovered: anything absorbed since the removal is newer
// and wins. Callers hold flushMu (the sweep that failed), never mu.
func (w *fileCache) restoreDirty(ext []*cext) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, e := range ext {
		cur := make([]pfs.Run, len(w.ext))
		for i, c := range w.ext {
			cur[i] = pfs.Run{Off: c.off, Len: int64(len(c.data))}
		}
		for _, g := range extent.Holes(pfs.Run{Off: e.off, Len: int64(len(e.data))}, cur) {
			w.clock++
			data := e.data[g.Off-e.off : g.Off-e.off+g.Len]
			i := sort.Search(len(w.ext), func(k int) bool { return w.ext[k].off > g.Off })
			w.insertAtLocked(i, &cext{off: g.Off, data: data, dirty: true, use: w.clock})
			w.dirty += g.Len
			w.total += g.Len
		}
	}
	w.gen++
}

// flushCleanLocked is the caching-mode sweep: write the victim extents
// — plus the dirty extents of the spill tier, read back from the spill
// file (with owned non-nil, only the chunks starting in an owned
// region: an elected flusher must not sweep a region another rank
// owns) — as one vectored sweep, mark them clean IN PLACE, and evict
// down to the budget. The data never leaves the cache mid-flush, so
// readers stay coherent without taking flushMu. Entered with w.mu held
// (and flushMu held by the caller); returns with w.mu released. A
// victim punched or re-absorbed during the sweep (a new pointer in
// memory, a new entry id in the spill tier) keeps its replacement's
// dirtiness — the replacement flushes later.
func (w *fileCache) flushCleanLocked(victims []*cext, owned func(off int64) bool) error {
	var chunks []spill.Chunk
	if w.spill != nil && w.spill.Dirty() > 0 {
		var err error
		if chunks, err = w.spill.CollectDirty(); err != nil {
			w.mu.Unlock()
			return err
		}
		if owned != nil {
			kept := chunks[:0]
			for _, c := range chunks {
				if owned(c.Off) {
					kept = append(kept, c)
				}
			}
			chunks = kept
		}
	}
	if len(victims) == 0 && len(chunks) == 0 {
		w.mu.Unlock()
		return nil
	}
	w.stats.Flushes++
	w.mu.Unlock()
	if err := w.flushExtents(victims, chunks); err != nil {
		return err
	}
	w.mu.Lock()
	present := make(map[*cext]bool, len(w.ext))
	for _, e := range w.ext {
		present[e] = true
	}
	for _, e := range victims {
		if present[e] && e.dirty {
			e.dirty = false
			w.dirty -= int64(len(e.data))
		}
	}
	if w.spill != nil && len(chunks) > 0 {
		ids := make([]int64, len(chunks))
		for i, c := range chunks {
			ids[i] = c.ID
		}
		w.spill.MarkClean(ids)
	}
	w.evictCleanLocked()
	w.mu.Unlock()
	return nil
}

// flushExtents issues one vectored FlushV covering the given memory
// extents plus the spill-tier chunks (sorted together by offset on a
// copy; extent data is immutable once created, so snapshots taken
// under mu stay valid without it — the two tiers are disjoint, so the
// merged run list stays pairwise disjoint too).
func (w *fileCache) flushExtents(ext []*cext, chunks []spill.Chunk) error {
	type piece struct {
		off  int64
		data []byte
	}
	pieces := make([]piece, 0, len(ext)+len(chunks))
	for _, e := range ext {
		pieces = append(pieces, piece{e.off, e.data})
	}
	for _, c := range chunks {
		pieces = append(pieces, piece{c.Off, c.Data})
	}
	if len(pieces) == 0 {
		return nil
	}
	sort.Slice(pieces, func(i, j int) bool { return pieces[i].off < pieces[j].off })
	runs := make([]pfs.Run, len(pieces))
	var total int64
	for i, p := range pieces {
		runs[i] = pfs.Run{Off: p.off, Len: int64(len(p.data))}
		total += int64(len(p.data))
	}
	var buf []byte
	if len(pieces) == 1 {
		buf = pieces[0].data // single extent: no packing copy needed
	} else {
		buf = make([]byte, total)
		var at int64
		for _, p := range pieces {
			copy(buf[at:], p.data)
			at += int64(len(p.data))
		}
	}
	_, err := w.fs.FlushV(runs, buf)
	return err
}

// lruLocked returns the extents of one color, least recently used
// first. Must be called with w.mu held.
func (w *fileCache) lruLocked(dirty bool) []*cext {
	out := make([]*cext, 0, len(w.ext))
	for _, e := range w.ext {
		if e.dirty == dirty {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].use < out[j].use })
	return out
}

// dropLocked removes victims from the extent list; their byte
// accounting is the caller's. The list is compacted in place, and the
// vacated tail is cleared so the backing array does not keep the
// dropped extents' buffers alive. Must be called with w.mu held.
func (w *fileCache) dropLocked(victims []*cext) {
	if len(victims) == 0 {
		return
	}
	drop := make(map[*cext]bool, len(victims))
	for _, e := range victims {
		drop[e] = true
	}
	keep := w.ext[:0]
	for _, e := range w.ext {
		if !drop[e] {
			keep = append(keep, e)
		}
	}
	clear(w.ext[len(keep):])
	w.ext = keep
}

// evictCleanLocked removes clean extents in LRU order until the cache
// fits its budget (or only dirty extents remain): one sorted pass over
// the clean extents and one slice rebuild, so a large over-budget
// round costs O(n log n) rather than a min-scan per victim. With the
// spill tier on, eviction DEMOTES: each victim's bytes move to the
// spill file before the memory copy drops, so a warm working set
// larger than RAM re-reads from local disk instead of the pfs (a
// refused demote — spill budget full, disk failure — degrades to the
// plain drop). Must be called with w.mu held.
func (w *fileCache) evictCleanLocked() {
	if w.budget <= 0 || w.total <= w.budget {
		return
	}
	var victims []*cext
	for _, e := range w.lruLocked(false) {
		if w.total <= w.budget {
			break
		}
		n := int64(len(e.data))
		w.total -= n
		w.stats.Evicted += n
		if w.spill != nil {
			if w.spill.Put(e.off, e.data, false) {
				w.stats.SpillDemoted += n
			} else {
				w.stats.SpillRejected++
			}
		}
		victims = append(victims, e)
	}
	w.dropLocked(victims)
}

// EnforceBudget brings the cache back under its memory budget: clean
// extents evict LRU-first. If the dirty bytes alone still exceed the
// budget, one walk over the dirty extents, LRU-first, frees the rest:
// with the spill tier on, each extent demotes to local disk until the
// tier refuses one (write-behind keeps buffering far past RAM, and the
// flush sweep reads the bytes back from the spill file); every later
// extent the budget still needs flushes-on-evict as one vectored FlushV
// sweep and then leaves as clean. Growth paths (Absorb sequences,
// ReadThrough inserts) call it after releasing mu.
func (w *fileCache) EnforceBudget() error {
	w.mu.Lock()
	if w.budget <= 0 || w.total <= w.budget {
		w.mu.Unlock()
		return nil
	}
	w.evictCleanLocked()
	over := w.total > w.budget
	w.mu.Unlock()
	if !over {
		return nil
	}
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	demote := w.spill != nil
	var demoted, victims []*cext
	var vbytes int64
	for _, e := range w.lruLocked(true) {
		if w.total-vbytes <= w.budget {
			break
		}
		n := int64(len(e.data))
		if demote && w.spill.Put(e.off, e.data, true) {
			w.stats.SpillDemoted += n
			w.total -= n
			w.dirty -= n
			demoted = append(demoted, e)
			continue
		}
		if demote {
			// The spill tier may itself be full of dirty bytes, which it
			// never drops: flush-on-evict takes everything from here on.
			w.stats.SpillRejected++
			demote = false
		}
		victims = append(victims, e)
		vbytes += n
	}
	w.dropLocked(demoted)
	if len(victims) == 0 {
		w.mu.Unlock()
		return nil
	}
	w.stats.FlushEvicted += vbytes
	return w.flushCleanLocked(victims, nil) // unlocks w.mu; evicts the marked-clean victims
}

// hole is one uncached sub-range of a ReadThrough request and its
// position in the caller's packed buffer.
type hole struct {
	off, n, bufAt int64
}

// ReadThrough serves a vectored read (runs packed back-to-back into
// buf) through the cache: bytes covered by cached extents — clean or
// dirty — copy straight from memory, and the uncovered holes are
// fetched from the store as ONE vectored SieveReadV of sieve-aligned
// blocks (plus the read-ahead extension), which then populate the
// cache as clean extents for the next reader. Requires clean caching
// (budget > 0); File.ReadV and the collective aggregateRead route
// through here when it is on.
func (w *fileCache) ReadThrough(runs []pfs.Run, buf []byte) error {
	// Phase 1: serve what the cache covers, collect the holes. Spill
	// hits promote FIRST — still under this same mu hold, so the hole
	// computation below sees the promoted extents as ordinary memory
	// coverage and the two tiers never cover a byte twice.
	w.mu.Lock()
	genStart := w.gen
	w.clock++
	stamp := w.clock
	var promoted bool
	if w.spill != nil {
		var hitSpill int64
		for _, r := range runs {
			n, err := w.promoteLocked(r.Off, r.Len, stamp)
			if err != nil {
				w.mu.Unlock()
				return err
			}
			hitSpill += n
		}
		if hitSpill > 0 {
			promoted = true
			w.stats.SpillHits++
			w.stats.SpillHitBytes += hitSpill
		}
	}
	var holes []hole
	var at, hitBytes int64
	for _, r := range runs {
		rEnd := r.Off + r.Len
		pos := r.Off
		k := sort.Search(len(w.ext), func(i int) bool { return w.ext[i].end() > r.Off })
		for k < len(w.ext) && w.ext[k].off < rEnd {
			e := w.ext[k]
			if e.off > pos {
				holes = append(holes, hole{off: pos, n: e.off - pos, bufAt: at + (pos - r.Off)})
				pos = e.off
			}
			o := e.end()
			if o > rEnd {
				o = rEnd
			}
			copy(buf[at+(pos-r.Off):at+(o-r.Off)], e.data[pos-e.off:o-e.off])
			hitBytes += o - pos
			e.use = stamp
			pos = o
			k++
		}
		if pos < rEnd {
			holes = append(holes, hole{off: pos, n: rEnd - pos, bufAt: at + (pos - r.Off)})
		}
		at += r.Len
	}
	w.stats.HitBytes += hitBytes
	if len(holes) == 0 {
		w.stats.Hits++
		if promoted {
			// Promotion grew the memory tier; shed the coldest extents
			// (which demote right back out) rather than sit over budget.
			w.evictCleanLocked()
		}
		w.mu.Unlock()
		return nil
	}
	w.stats.Misses++
	for _, h := range holes {
		w.stats.MissBytes += h.n
	}
	sieve := w.sieveSize()
	ra := w.readAhead
	// The fetch plan: the holes' sieve-aligned covering blocks plus the
	// read-ahead extension, CLIPPED against what the cache already
	// holds — block rounding and read-ahead must never re-read bytes a
	// neighboring extent (or a concurrent aggregator's domain) already
	// brought in. Built under mu so the clip and the holes see the same
	// coverage; every hole is uncovered and therefore lies inside
	// exactly one clipped fetch run.
	blocks := make([]pfs.Run, 0, len(holes)+1)
	for _, h := range holes {
		blocks = append(blocks, extent.Align(pfs.Run{Off: h.off, Len: h.n}, sieve))
	}
	if ra > 0 {
		// Read-ahead: extend past the last fetched block by ra bytes,
		// rounded up to whole sieve blocks, so a forward sectioned scan
		// finds its next block already cached.
		last := blocks[len(blocks)-1]
		ahead := ((ra + sieve - 1) / sieve) * sieve
		blocks = append(blocks, pfs.Run{Off: last.Off + last.Len, Len: ahead})
	}
	cover := make([]pfs.Run, len(w.ext), len(w.ext)+8)
	for i, e := range w.ext {
		cover[i] = pfs.Run{Off: e.off, Len: int64(len(e.data))}
	}
	if w.spill != nil {
		// Both tiers are "already cached": block rounding and read-ahead
		// must not re-fetch a spilled range — worse than wasted I/O, the
		// store bytes would be STALE wherever the spilled extent is a
		// deferred dirty write.
		cover = extent.Coalesce(w.spill.Coverage(cover))
	}
	var fetch []pfs.Run
	for _, b := range pfs.Coalesce(blocks) {
		fetch = append(fetch, extent.Holes(b, cover)...)
	}
	w.mu.Unlock()

	// Phase 2: fetch the plan in one vectored sieve read, without
	// holding mu (the store sleeps RealTime service time; concurrent
	// cache users must not wait on it).
	starts := make([]int64, len(fetch))
	var ftotal int64
	for i, r := range fetch {
		starts[i] = ftotal
		ftotal += r.Len
	}
	temp := make([]byte, ftotal)
	if _, err := w.fs.SieveReadV(fetch, temp); err != nil {
		// Degraded fallback: the sieve plan reads MORE than the caller
		// asked for (block rounding plus read-ahead), so a failure in
		// that speculative territory must not fail the demand read.
		// Retry with exactly the uncovered holes, straight into the
		// caller's buffer, and skip cache population — the cache only
		// ever holds whole verified blocks.
		return w.readHolesDirect(holes, buf)
	}
	// tempAt maps a file offset inside the fetched blocks to its packed
	// position in temp (every hole lies within one coalesced block).
	tempAt := func(off int64) int64 {
		i := sort.Search(len(fetch), func(k int) bool { return fetch[k].Off > off }) - 1
		return starts[i] + (off - fetch[i].Off)
	}
	for _, h := range holes {
		o := tempAt(h.off)
		copy(buf[h.bufAt:h.bufAt+h.n], temp[o:o+h.n])
	}

	// Phase 3: populate the cache with the fetched blocks, filling only
	// the gaps between existing extents (which are either identical
	// clean bytes or NEWER dirty bytes — they always win). If any punch
	// or absorb landed during the fetch, the store bytes we hold may
	// predate a write: serve the caller (a racing unsynced conflict is
	// undefined, as in MPI) but do not let them into the cache.
	w.mu.Lock()
	w.stats.SieveFetched += ftotal
	if w.gen != genStart {
		w.mu.Unlock()
		return nil
	}
	cur := make([]pfs.Run, len(w.ext), len(w.ext)+8)
	for i, e := range w.ext {
		cur[i] = pfs.Run{Off: e.off, Len: int64(len(e.data))}
	}
	if w.spill != nil {
		// Re-clip against the spill tier too: a concurrent demote during
		// phase 2 moved bytes there, and the fetched store copy of that
		// range is at best redundant (double budget) and stale where the
		// demoted extent was dirty.
		cur = extent.Coalesce(w.spill.Coverage(cur))
	}
	// Demanded bytes end here; fetched blocks past it are speculative
	// read-ahead and insert one LRU tick colder, so speculation never
	// evicts the data the caller just asked for.
	reqEnd := holes[len(holes)-1].off + holes[len(holes)-1].n
	for _, fr := range fetch {
		for _, g := range extent.Holes(fr, cur) {
			// Insert split at sieve-block boundaries: the block is the
			// cache's eviction granule, so one large fetch never becomes
			// a single monolithic extent the LRU can only drop whole.
			for g.Len > 0 {
				n := ((g.Off/sieve)+1)*sieve - g.Off
				if n > g.Len {
					n = g.Len
				}
				data := make([]byte, n)
				o := tempAt(g.Off)
				copy(data, temp[o:o+n])
				use := stamp
				if g.Off >= reqEnd {
					use = stamp - 1
				}
				i := sort.Search(len(w.ext), func(k int) bool { return w.ext[k].off > g.Off })
				w.insertAtLocked(i, &cext{off: g.Off, data: data, use: use})
				w.total += n
				g.Off += n
				g.Len -= n
			}
		}
	}
	w.evictCleanLocked()
	w.mu.Unlock()
	return nil
}

// readHolesDirect is ReadThrough's fallback when the sieve-aligned
// fetch fails: a tight vectored read of exactly the uncovered holes,
// placed straight into the caller's buffer. No sieve attribution, no
// read-ahead, no cache insert — the minimal demand I/O that can still
// satisfy the caller when part of the speculative fetch range is
// unreachable.
func (w *fileCache) readHolesDirect(holes []hole, buf []byte) error {
	runs := make([]pfs.Run, len(holes))
	var total int64
	for i, h := range holes {
		runs[i] = pfs.Run{Off: h.off, Len: h.n}
		total += h.n
	}
	tight := make([]byte, total)
	if _, err := w.fs.ReadV(runs, tight); err != nil {
		return err
	}
	var at int64
	for _, h := range holes {
		copy(buf[h.bufAt:h.bufAt+h.n], tight[at:at+h.n])
		at += h.n
	}
	return nil
}

// promoteLocked moves the spilled extents overlapping [off, off+n)
// back into the memory tier, LRU-stamped now (a spill hit is a use).
// Dirty promoted extents re-enter the dirty accounting — they were
// deferred writes demoted under pressure and are deferred writes
// again. Returns the promoted bytes that overlap the request (the
// spill-hit attribution; whole extents move, so more may promote). A
// clean extent whose spill read-back failed simply does not come back
// — its range stays a hole and is re-fetched from the pfs with no
// cache pollution, mirroring readHolesDirect — but a lost DIRTY extent
// is an error: those bytes exist nowhere else. Must be called with
// w.mu held.
func (w *fileCache) promoteLocked(off, n, stamp int64) (int64, error) {
	proms, err := w.spill.Take(off, n)
	if err != nil {
		return 0, err
	}
	var overlap int64
	for _, p := range proms {
		pn := int64(len(p.Data))
		w.stats.SpillPromoted += pn
		lo, hi := p.Off, p.Off+pn
		if off > lo {
			lo = off
		}
		if off+n < hi {
			hi = off + n
		}
		if hi > lo {
			overlap += hi - lo
		}
		// The tiers are disjoint, so the promoted range is uncovered in
		// memory: a plain sorted insert keeps the extent-list invariant.
		i := sort.Search(len(w.ext), func(k int) bool { return w.ext[k].off > p.Off })
		w.insertAtLocked(i, &cext{off: p.Off, data: p.Data, dirty: p.Dirty, use: stamp})
		w.total += pn
		if p.Dirty {
			w.dirty += pn
		}
	}
	return overlap, nil
}
