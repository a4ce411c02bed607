package vmheap

// Sweep segmentation. The arena is partitioned into parse ranges: address
// intervals whose start is always a chunk header, recorded in segBounds.
// Every sweep pass rebuilds the table (into segScratch, swapped at the end)
// by noting chunk starts as it walks, so the table always describes a state
// the heap has actually been in. Between sweeps chunk boundaries only
// subdivide — Alloc splits chunks, never merges them — so a recorded
// boundary stays a valid header until the next sweep coalesces across it.
// That invariant is what lets the lazy sweep start parsing mid-heap: the
// collection-time pause shrinks to a census (a header-only walk that
// computes exact sweep statistics and a fresh table) — or, when the trace
// hands over exact marked totals, to no walk at all — and the real
// reclamation happens one range at a time, on demand, when the allocator
// runs out of swept chunks.
//
// Lazy ranges are swept in strictly ascending address order with the open
// free run carried across range boundaries, so a completed lazy sweep
// coalesces — and installs free chunks — exactly like the eager sweep.

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// Nominal segment sizing: aim for targetSegments parse ranges, but keep
// segments large enough that per-segment overhead is noise on tiny test
// heaps and small enough that demand sweeping stays incremental on big ones.
const (
	targetSegments  = 256
	minSegmentWords = 256
	maxSegmentWords = 1 << 16
)

// segmentWordsFor picks the nominal segment size for a heap of capWords.
func segmentWordsFor(capWords int) uint32 {
	seg := capWords / targetSegments
	if seg < minSegmentWords {
		seg = minSegmentWords
	}
	if seg > maxSegmentWords {
		seg = maxSegmentWords
	}
	return align2(uint32(seg))
}

// segState is one entry of the lazy sweep's per-segment state machine.
type segState uint8

const (
	segUnswept segState = iota
	segSwept
)

// lazyState is the deferred portion of a lazy sweep between the census and
// the final on-demand range sweep.
type lazyState struct {
	pending bool
	opts    SweepOptions
	// next indexes the first unswept parse range; everything below it has
	// been reclaimed. Ranges are swept strictly in ascending order.
	next int
	// runStart/runLen carry the open free run across range boundaries so
	// deferred sweeping coalesces exactly like the eager linear walk.
	runStart uint32
	runLen   uint32
	state    []segState
	// rec re-records the parse-range table as ranges are reclaimed: the
	// census table holds pre-sweep boundaries, which go stale wherever the
	// deferred pass merges a free run across them.
	rec boundsRec
}

// SweepModeStats counts activity specific to the lazy sweep. All fields
// stay zero under the eager default.
type SweepModeStats struct {
	// LazySweeps counts sweep passes deferred by lazy mode (census only).
	LazySweeps uint64
	// DemandSegments counts parse ranges swept on demand by the allocator;
	// CompletionSegments counts ranges swept by CompleteSweep (forced
	// before a new trace or by heap introspection).
	DemandSegments     uint64
	CompletionSegments uint64
	// DeferredSweepTime is the total wall time spent in deferred range
	// sweeps — reclamation work that the eager sweep would have done
	// inside the collection pause.
	DeferredSweepTime time.Duration
}

// initSegments sizes the parse-range table for a fresh zone: one range
// covering the zone's whole extent (the initial single free chunk).
// Nominal range bases are offset by the zone's start so that an unzoned
// heap (lo = heapBase) produces exactly the historical table.
func (h *Heap) initSegments() {
	h.segWords = segmentWordsFor(int(h.hi-h.lo) + heapBase)
	base := h.lo - heapBase
	n := (int(h.hi-base) + int(h.segWords) - 1) / int(h.segWords)
	h.segBounds = make([]Ref, n+1)
	h.segScratch = make([]Ref, n+1)
	end := Ref(h.hi)
	h.segBounds[0] = Ref(h.lo)
	for i := 1; i <= n; i++ {
		h.segBounds[i] = end
	}
	h.lazy.state = make([]segState, n)
}

// numSegments returns the number of parse ranges in the table.
func (h *Heap) numSegments() int { return len(h.segBounds) - 1 }

// SetLazySweep selects the reclamation strategy for subsequent sweeps: lazy
// defers reclamation to segment-at-a-time on-demand sweeps. The default
// (false) is the eager sweep the published figures use.
func (h *Heap) SetLazySweep(lazy bool) {
	if h.lazy.pending {
		panic("vmheap: SetLazySweep during a pending lazy sweep")
	}
	h.lazySweep = lazy
}

// SweepModeStats returns the lazy sweep counters.
func (h *Heap) SweepModeStats() SweepModeStats { return h.sweepStats }

// SweepPending reports whether a lazy sweep has unswept ranges outstanding
// in any zone of the arena.
func (h *Heap) SweepPending() bool {
	for _, p := range h.peers {
		if p.lazy.pending {
			return true
		}
	}
	return false
}

// SegmentStates reports the lazy state machine: total parse ranges and how
// many of them the pending sweep has reclaimed. With no sweep pending,
// swept == total.
func (h *Heap) SegmentStates() (swept, total int) {
	total = h.numSegments()
	if !h.lazy.pending {
		return total, total
	}
	return h.lazy.next, total
}

// CompleteSweep drives every zone's pending lazy sweep to completion. The
// collectors call it before every trace — stale mark bits on not-yet-swept
// survivors would corrupt the next mark phase — and the introspection entry
// points (Iterate, Verify, FreeChunks) call it so observations are exact.
// ZoneCompleteSweep completes only this zone's pending sweep (used by zone
// collections, which must not disturb peers).
func (h *Heap) CompleteSweep() {
	for _, p := range h.peers {
		p.ensureSwept()
	}
}

// ZoneCompleteSweep drives this zone's pending lazy sweep (if any) to
// completion without touching peers.
func (h *Heap) ZoneCompleteSweep() { h.ensureSwept() }

func (h *Heap) ensureSwept() {
	for h.lazy.pending {
		h.sweepSegment(false)
	}
}

// PendingPromotion reports whether r is a survivor of a pending lazy sweep
// that will be promoted to the mature generation when its range is swept.
// The generational write barrier must treat such objects as already mature:
// a store into one would otherwise not be remembered, and an immature child
// reachable only through it would be wrongly reclaimed by the next minor
// collection.
func (h *Heap) PendingPromotion(r Ref) bool {
	if !h.lazy.pending || h.lazy.opts.SetFlags&FlagMature == 0 || r == Nil {
		return false
	}
	if r < h.segBounds[h.lazy.next] {
		return false // already swept; the header speaks for itself
	}
	hd := h.words[r]
	if hd&FlagFree != 0 {
		return false
	}
	return hd&FlagMark != 0 || (h.lazy.opts.Immature && hd&FlagMature != 0)
}

// pendingLive reports whether the pending sweep will keep the chunk whose
// header is hd. Valid only while a lazy sweep is pending.
func (h *Heap) pendingLive(hd uint64) bool {
	return hd&FlagMark != 0 || (h.lazy.opts.Immature && hd&FlagMature != 0)
}

// --- parse-range boundary recording ------------------------------------

// boundsRec assigns parse-range starts while a sweep walks the zone in
// ascending address order: range i begins at the first noted header at or
// above the nominal base base+i*segWords (base anchors the table to the
// zone's start and is zero for an unzoned heap). Entries the walk never
// reaches stay unassigned for the caller to fill.
type boundsRec struct {
	out  []Ref
	segW uint32
	base uint32 // zone anchor: lo - heapBase (0 when unzoned)
	next int    // next range index to assign
	lim  int    // number of ranges in the table
}

func (b *boundsRec) note(addr uint32) {
	for b.next < b.lim && b.base+uint32(b.next)*b.segW <= addr {
		b.out[b.next] = Ref(addr)
		b.next++
	}
}

// beginBounds starts a full-zone recording into the scratch table.
func (h *Heap) beginBounds() boundsRec {
	return boundsRec{out: h.segScratch, segW: h.segWords, base: h.lo - heapBase, lim: h.numSegments()}
}

// finishBounds completes a full-zone recording — ranges past the last noted
// header are empty — and publishes the scratch table.
func (h *Heap) finishBounds(rec *boundsRec) {
	end := Ref(h.hi)
	for i := rec.next; i <= h.numSegments(); i++ {
		h.segScratch[i] = end
	}
	h.segBounds, h.segScratch = h.segScratch, h.segBounds
}

// --- lazy sweep ---------------------------------------------------------

// sweepCensus is the collection-time half of a lazy sweep: a header-only
// walk that computes the exact sweep statistics (so gc.Stats is identical
// to the eager mode's), rebuilds the parse-range table from the pre-sweep
// chunk boundaries, empties the free lists, and arms the deferred state.
// No header is rewritten and no hook runs here; both are deferred to the
// per-range sweeps, which always run before any chunk of their range is
// reused.
func (h *Heap) sweepCensus(opts SweepOptions) SweepStats {
	var st SweepStats
	rec := h.beginBounds()
	addr := h.lo
	end := h.hi
	inRun := false
	for addr < end {
		hd := h.words[addr]
		size := headerSize(hd)
		if size == 0 || addr+size > end {
			panic(fmt.Sprintf("vmheap: corrupt header at %d during sweep census: %#x", addr, hd))
		}
		rec.note(addr)
		switch {
		case hd&FlagFree != 0:
			if !inRun {
				st.FreeChunks++
				inRun = true
			}
		case hd&FlagMark != 0 || (opts.Immature && hd&FlagMature != 0):
			st.LiveObjects++
			st.LiveWords += uint64(size)
			inRun = false
		default:
			if !inRun {
				st.FreeChunks++
				inRun = true
			}
			st.FreedObjects++
			st.FreedWords += uint64(size)
		}
		addr += size
	}
	h.finishBounds(&rec)

	h.resetFreeLists()
	h.liveObjs = st.LiveObjects
	h.liveWords = st.LiveWords
	h.freeWords = h.capLocal() - st.LiveWords

	h.lazy.pending = true
	h.lazy.opts = opts
	h.lazy.next = 0
	h.lazy.runStart, h.lazy.runLen = 0, 0
	for i := range h.lazy.state {
		h.lazy.state[i] = segUnswept
	}
	// The deferred pass records the post-sweep boundaries into the (now
	// free) other buffer; the table just published above keeps describing
	// the pre-sweep parse until every range is reclaimed.
	h.lazy.rec = h.beginBounds()
	h.sweepStats.LazySweeps++
	return st
}

// sweepArm is the walkless variant of the lazy sweep's collection-time half.
// When the trace supplies exact marked totals (SweepOptions.MarkedKnown),
// the census walk is redundant: the survivor counts are the totals, the
// freed counts are the allocator's live accounting minus them, and the
// parse-range table published by the previous sweep is still a valid parse
// of the heap (allocation only subdivides chunks), so the deferred range
// sweeps reuse it as-is. The post-mark pause becomes O(1) in heap size.
// FreeChunks is the one census product that genuinely needs a walk — the
// post-coalesce chunk count is unknowable before reclamation — and is
// reported as zero; the collectors never consume it.
func (h *Heap) sweepArm(opts SweepOptions) SweepStats {
	if opts.MarkedObjects > h.liveObjs || opts.MarkedWords > h.liveWords {
		panic(fmt.Sprintf("vmheap: marked totals exceed heap accounting (%d/%d objects, %d/%d words)",
			opts.MarkedObjects, h.liveObjs, opts.MarkedWords, h.liveWords))
	}
	st := SweepStats{
		LiveObjects:  opts.MarkedObjects,
		LiveWords:    opts.MarkedWords,
		FreedObjects: h.liveObjs - opts.MarkedObjects,
		FreedWords:   h.liveWords - opts.MarkedWords,
	}

	h.resetFreeLists()
	h.liveObjs = st.LiveObjects
	h.liveWords = st.LiveWords
	h.freeWords = h.capLocal() - st.LiveWords

	h.lazy.pending = true
	h.lazy.opts = opts
	h.lazy.next = 0
	h.lazy.runStart, h.lazy.runLen = 0, 0
	for i := range h.lazy.state {
		h.lazy.state[i] = segUnswept
	}
	h.lazy.rec = h.beginBounds()
	h.sweepStats.LazySweeps++
	return st
}

// sweepSegment reclaims the next unswept parse range of a pending lazy
// sweep: hooks run, survivor headers are rewritten, and free chunks are
// installed exactly as the eager sweep would have, because ranges are swept
// in ascending order with the open free run carried across boundaries.
// It reports false when no sweep is pending.
func (h *Heap) sweepSegment(demand bool) bool {
	if !h.lazy.pending {
		return false
	}
	t0 := time.Now()
	k := h.lazy.next
	start := uint32(h.segBounds[k])
	end := uint32(h.segBounds[k+1])
	opts := h.lazy.opts
	runStart, runLen := h.lazy.runStart, h.lazy.runLen

	flush := func() {
		if runLen == 0 {
			return
		}
		h.lazy.rec.note(runStart)
		h.installChunk(Ref(runStart), runLen)
		runStart, runLen = 0, 0
	}

	addr := start
	for addr < end {
		hd := h.words[addr]
		size := headerSize(hd)
		if size == 0 || addr+size > end {
			panic(fmt.Sprintf("vmheap: corrupt header at %d during deferred sweep: %#x", addr, hd))
		}
		switch {
		case hd&FlagFree != 0:
			if runLen == 0 {
				runStart = addr
			}
			runLen += size

		case hd&FlagMark != 0 || (opts.Immature && hd&FlagMature != 0):
			if opts.OnLive != nil {
				opts.OnLive(Ref(addr), hd)
			}
			h.words[addr] = (hd &^ (FlagMark | opts.ClearFlags)) | opts.SetFlags
			flush()
			h.lazy.rec.note(addr)

		default:
			if opts.OnFree != nil {
				opts.OnFree(Ref(addr), hd)
			}
			if runLen == 0 {
				runStart = addr
			}
			runLen += size
		}
		addr += size
	}

	h.lazy.runStart, h.lazy.runLen = runStart, runLen
	h.lazy.state[k] = segSwept
	h.lazy.next = k + 1
	if h.lazy.next >= h.numSegments() {
		// Last range: close the carried run, publish the post-sweep
		// boundary table, and retire the state machine.
		if runLen != 0 {
			h.lazy.rec.note(runStart)
			h.installChunk(Ref(runStart), runLen)
		}
		h.lazy.pending = false
		h.lazy.opts = SweepOptions{}
		h.lazy.runStart, h.lazy.runLen = 0, 0
		h.finishBounds(&h.lazy.rec)
		h.lazy.rec = boundsRec{}
		h.debugCheck()
	}
	if demand {
		h.sweepStats.DemandSegments++
	} else {
		h.sweepStats.CompletionSegments++
	}
	elapsed := time.Since(t0)
	h.sweepStats.DeferredSweepTime += elapsed
	h.tele.Span(telemetry.PhaseLazySegment, elapsed)
	return true
}
