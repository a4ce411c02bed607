// Package gc implements the stop-the-world collectors of the gcassert
// runtime:
//
//   - MarkSweep is the paper's configuration: a full-heap free-list
//     mark-sweep collector. In Base mode it runs the unmodified trace
//     loop; in Infrastructure mode every collection runs the assertion
//     machinery (ownership pre-phase, path-tracking root scan with
//     piggybacked checks, instance-limit checks, table maintenance).
//
//   - Generational is a two-generation non-moving variant (nursery objects
//     are promoted in place via a header bit, with a write-barrier-fed
//     remembered set). It demonstrates the paper's caveat that assertions
//     are only checked at full-heap collections.
package gc

import (
	"sync"
	"time"

	"repro/internal/assertions"
	"repro/internal/classes"
	"repro/internal/report"
	"repro/internal/roots"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vmheap"
)

// Mode selects the collector configuration measured in the paper.
type Mode uint8

const (
	// Base is the unmodified collector: no assertion infrastructure at
	// all. Assertions cannot be used in this mode.
	Base Mode = iota
	// Infrastructure enables the assertion machinery: path-tracking
	// trace loop and per-object checks, whether or not any assertions
	// are registered. This is the paper's "Infrastructure"
	// configuration; registering assertions on top of it yields the
	// "WithAssertions" configuration.
	Infrastructure
)

// String returns the configuration name used in the paper's figures.
func (m Mode) String() string {
	if m == Base {
		return "Base"
	}
	return "Infrastructure"
}

// Stats accumulates collector activity over a runtime's lifetime.
type Stats struct {
	Collections      uint64 // all collections
	FullCollections  uint64 // full-heap (major) collections
	MinorCollections uint64
	// ZoneCollections counts single-zone collections (CollectZone);
	// ZoneRetires counts Zone.Retire bulk frees. Both stay zero on an
	// unzoned runtime.
	ZoneCollections uint64
	ZoneRetires     uint64

	GCTime     time.Duration // total stop-the-world time
	FullGCTime time.Duration

	MarkedObjects uint64 // cumulative objects marked
	MarkedWords   uint64 // cumulative words of marked objects (GC throughput numerator)
	FreedObjects  uint64
	FreedWords    uint64

	// Trace totals accumulated across collections (assertion check
	// counters live here: dead hits, ownees checked, ...).
	Trace trace.Stats

	// LastLiveWords is the live heap size after the most recent
	// collection (used by the harness for heap-sizing calibration).
	LastLiveWords uint64

	// Dense side-table footprint (internal/sidetab): bytes of
	// materialized chunk storage across the assertion engine's tables and
	// lifetime epoch rollovers (full chunk zeroings forced by a 32-bit
	// epoch wrap). Snapshotted from the engine when the runtime builds a
	// stats snapshot; zero in Base mode.
	SideTabChunkBytes uint64
	SideTabRollovers  uint64

	// Incremental-mode totals; all zero when IncrementalBudget == 0.
	IncrementalCycles uint64 // full cycles completed incrementally
	MarkSlices        uint64 // bounded mark slices executed
	BarrierScans      uint64 // objects snapshot-scanned by the write barrier
	BarrierRefs       uint64 // reference slots processed by barrier scans

	// Pause accounting. Every stop-the-world interval — a whole collection
	// for the stop-the-world collectors; a cycle start, mark slice,
	// barrier scan, or completion for incremental mode — adds to PauseTime
	// and may raise MaxPause. All collector work happens inside pauses
	// (incremental, not concurrent), so PauseTime always equals GCTime;
	// the incremental win shows up in MaxPause, which is bounded by the
	// largest single interval rather than the full cycle.
	PauseTime time.Duration
	MaxPause  time.Duration

	// RecordPauses, when set before the first collection (core.Config
	// plumbs it through), appends every pause to PauseLog and the sweep
	// phase of every collection — the post-mark pause portion, which the
	// lazy sweep mode exists to shrink — to SweepPauseLog, so reports can
	// compute per-pause percentiles (gcbench -fig sweep). Off by default:
	// the published figures never allocate the logs.
	RecordPauses  bool
	PauseLog      []time.Duration
	SweepPauseLog []time.Duration
}

// addPause records one stop-the-world interval.
func (s *Stats) addPause(d time.Duration) {
	s.PauseTime += d
	if d > s.MaxPause {
		s.MaxPause = d
	}
	if s.RecordPauses {
		s.PauseLog = append(s.PauseLog, d)
	}
}

// timedPhase measures f when pause recording is on (zero otherwise).
func (s *Stats) timedPhase(f func()) time.Duration {
	if !s.RecordPauses {
		f()
		return 0
	}
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// timedSweep runs one sweep phase, logging its duration as this collection's
// post-mark sweep pause when pause recording is on. extra is reclamation
// already performed inside this pause and charged to it (a lazy sweep left
// pending by the previous cycle completes at pause start), so the log never
// flatters the lazy mode.
func (s *Stats) timedSweep(extra time.Duration, f func() vmheap.SweepStats) vmheap.SweepStats {
	if !s.RecordPauses {
		return f()
	}
	t0 := time.Now()
	sw := f()
	s.SweepPauseLog = append(s.SweepPauseLog, extra+time.Since(t0))
	return sw
}

// addIncrementalWork attributes one incremental STW interval to the cycle
// totals and the pause accounting.
func (s *Stats) addIncrementalWork(d time.Duration) {
	s.GCTime += d
	s.FullGCTime += d
	s.addPause(d)
}

// addTrace folds one collection's trace counters into the totals.
func (s *Stats) addTrace(t trace.Stats) {
	s.MarkedWords += t.VisitedWords
	s.Trace.Visited += t.Visited
	s.Trace.RefsScanned += t.RefsScanned
	s.Trace.DeadHits += t.DeadHits
	s.Trace.SharedHits += t.SharedHits
	s.Trace.OwneesChecked += t.OwneesChecked
	s.Trace.ForcedRefs += t.ForcedRefs
}

// Collector is the interface the runtime drives. Collect performs whatever
// collection the policy calls for (for MarkSweep, always full); CollectFull
// forces a full-heap collection, which is the only kind that checks
// assertions. WriteBarrier must be called by the runtime on every reference
// store.
type Collector interface {
	Collect() error
	CollectFull() error
	WriteBarrier(parent vmheap.Ref)
	Stats() *Stats
	// Name identifies the collector in harness output.
	Name() string
	// SetTelemetry attaches a telemetry recorder to the collector and its
	// tracer; nil (the default) disables all emission.
	SetTelemetry(rec *telemetry.Recorder)
	// SetPrepareRoots installs a callback the collector invokes
	// immediately before every whole-heap root scan and before every
	// whole-heap completion sweep, under the same lock as the scan or
	// sweep itself. The runtime uses it to gather hidden-register pins:
	// the pre-scan call makes just-allocated, not-yet-published objects
	// roots, and the pre-sweep call re-certifies pins taken during an
	// incremental cycle before the sweep advances the heap's epoch and
	// invalidates their stamps. Nil (the default) disables the hook.
	SetPrepareRoots(fn func())

	// Incremental driving (no-ops unless the collector was configured with
	// an IncrementalBudget > 0). StartFull begins an incremental full
	// collection — snapshot root scan in one pause — falling back to a
	// stop-the-world CollectFull when incremental mode is off. StepFull
	// runs one bounded mark slice and completes the cycle (sweep included)
	// when the worklist drains, reporting completion. FinishFull drives
	// any in-flight cycle to completion. IncrementalActive reports an
	// in-flight cycle. SnapshotBarrier must be called before every
	// reference store (the snapshot-at-beginning barrier); DidAllocate
	// after every successful allocation (trigger check, allocate-black,
	// allocation-tax slice).
	StartFull() error
	StepFull() (done bool, err error)
	FinishFull() error
	IncrementalActive() bool
	SnapshotBarrier(obj vmheap.Ref)
	DidAllocate(r vmheap.Ref)
	// DidRefill is the allocation-buffer analog of DidAllocate's trigger
	// check, called once per buffer refill instead of once per object:
	// it may start an incremental cycle when free space runs low. The
	// caller must have retired every allocation buffer first. A no-op
	// unless incremental mode is configured.
	DidRefill()

	// StepMark runs one bounded mark slice of an in-flight cycle WITHOUT
	// finishing it when the worklist drains — it only reports the drain.
	// The concurrent pacer uses this to separate mark progress (safe from
	// its own slice loop) from cycle completion (which sweeps, and so must
	// happen at a point where every allocation buffer has been retired).
	// With no cycle active it reports true.
	StepMark() bool
	// CycleMarked returns the number of objects marked so far by the
	// current (or, after it finishes, most recent) trace. The pacer's
	// assist schedule is proportional in this figure.
	CycleMarked() uint64
}

// MarkSweep is the full-heap mark-sweep collector the paper evaluates.
type MarkSweep struct {
	heap   *vmheap.Heap
	tracer *trace.Tracer
	engine *assertions.Engine // nil in Base mode
	roots  roots.Source
	reg    *classes.Registry
	mode   Mode
	stats  Stats

	// IncrementalBudget > 0 enables incremental full collections: marking
	// proceeds in slices of that many objects interleaved with mutator
	// work, behind a snapshot-at-beginning write barrier. 0 (the default)
	// keeps the paper's stop-the-world collections.
	IncrementalBudget int

	// ConcurrentPacing hands cycle scheduling to core's background pacer:
	// DidAllocate stops starting cycles or levying the allocation tax (the
	// pacer triggers on heap growth and taxes via assists), and DidRefill
	// becomes a no-op. Requires IncrementalBudget > 0.
	ConcurrentPacing bool

	inc incCycle

	// prepareRoots, when non-nil, runs before every whole-heap root scan
	// and completion sweep (see Collector.SetPrepareRoots).
	prepareRoots func()

	// Concurrent zone collection keeps one private tracer per zone so two
	// zones can mark simultaneously. zmu guards only this lazily-built map
	// (a leaf lock held for map access alone, never across a trace).
	zmu         sync.Mutex
	zoneTracers map[*vmheap.Heap]*trace.Tracer

	// tele, when non-nil, receives cycle/pause events (the tracer and heap
	// carry their own references for the phase spans).
	tele *telemetry.Recorder
}

// NewMarkSweep creates the collector. engine must be nil exactly when mode
// is Base.
func NewMarkSweep(h *vmheap.Heap, reg *classes.Registry, src roots.Source, mode Mode, engine *assertions.Engine) *MarkSweep {
	if (mode == Base) != (engine == nil) {
		panic("gc: engine presence must match mode")
	}
	return &MarkSweep{
		heap:   h,
		tracer: trace.New(h, reg),
		engine: engine,
		roots:  src,
		reg:    reg,
		mode:   mode,
	}
}

// Name implements Collector.
func (c *MarkSweep) Name() string { return "MarkSweep" }

// Stats implements Collector.
func (c *MarkSweep) Stats() *Stats { return &c.stats }

// SetTelemetry implements Collector.
func (c *MarkSweep) SetTelemetry(rec *telemetry.Recorder) {
	c.tele = rec
	c.tracer.SetTelemetry(rec)
}

// WriteBarrier is a no-op for a non-generational collector.
func (c *MarkSweep) WriteBarrier(vmheap.Ref) {}

// incParts assembles the shared incremental driver over this collector.
func (c *MarkSweep) incParts() incShared {
	return incShared{
		prepare:    c.prepareRoots,
		heap:       c.heap,
		tracer:     c.tracer,
		engine:     c.engine,
		roots:      c.roots,
		mode:       c.mode,
		stats:      &c.stats,
		st:         &c.inc,
		budget:     c.IncrementalBudget,
		concurrent: c.ConcurrentPacing,
		tele:       c.tele,
		finishSweep: func(clear uint64, onFree func(vmheap.Ref, uint64)) vmheap.SweepStats {
			return c.heap.Sweep(vmheap.SweepOptions{ClearFlags: clear, OnFree: onFree})
		},
	}
}

// SetPrepareRoots implements Collector.
func (c *MarkSweep) SetPrepareRoots(fn func()) { c.prepareRoots = fn }

// prep runs the prepareRoots hook if one is installed.
func (c *MarkSweep) prep() {
	if c.prepareRoots != nil {
		c.prepareRoots()
	}
}

// StartFull implements Collector: begin an incremental cycle, or run a
// stop-the-world full collection when incremental mode is off.
func (c *MarkSweep) StartFull() error {
	if c.IncrementalBudget <= 0 {
		return c.CollectFull()
	}
	p := c.incParts()
	if err := p.takePending(); err != nil {
		return err
	}
	p.start()
	return nil
}

// StepFull implements Collector: one bounded mark slice.
func (c *MarkSweep) StepFull() (bool, error) { return c.incParts().step() }

// FinishFull implements Collector: complete any in-flight cycle.
func (c *MarkSweep) FinishFull() error { return c.incParts().finish() }

// IncrementalActive implements Collector.
func (c *MarkSweep) IncrementalActive() bool { return c.inc.active }

// SnapshotBarrier implements Collector: the snapshot-at-beginning barrier.
func (c *MarkSweep) SnapshotBarrier(obj vmheap.Ref) {
	if !c.inc.active {
		return
	}
	c.incParts().snapshotBarrier(obj)
}

// DidAllocate implements Collector: incremental trigger, allocate-black,
// and the allocation-tax slice.
func (c *MarkSweep) DidAllocate(r vmheap.Ref) {
	if c.IncrementalBudget <= 0 {
		return
	}
	c.incParts().didAllocate(r)
}

// DidRefill implements Collector: the per-buffer-refill incremental
// trigger check.
func (c *MarkSweep) DidRefill() {
	if c.IncrementalBudget <= 0 {
		return
	}
	c.incParts().didRefill()
}

// StepMark implements Collector: one mark slice without cycle completion.
func (c *MarkSweep) StepMark() bool { return c.incParts().stepMark() }

// CycleMarked implements Collector.
func (c *MarkSweep) CycleMarked() uint64 { return c.tracer.Stats().Visited }

// Collect implements Collector: every MarkSweep collection is full-heap.
func (c *MarkSweep) Collect() error { return c.CollectFull() }

// markFull runs the mark phase of a full collection: in Infrastructure
// mode, the ownership pre-phase (when ownership assertions are registered)
// and then the checking trace; in Base mode, the bare trace.
func markFull(t *trace.Tracer, eng *assertions.Engine, src roots.Source, mode Mode) {
	if mode == Infrastructure {
		eng.BeginCycle()
		t.SetChecks(eng.Checks())
		if ph := eng.OwnershipPhase(); ph != nil {
			t.RunOwnershipPhase(ph)
		}
		t.TraceInfra(src)
		return
	}
	t.TraceBase(src)
}

// CollectFull performs one full collection. An in-flight incremental cycle
// is driven to completion instead — its snapshot is already taken, and
// completing it is a full collection with all checks.
func (c *MarkSweep) CollectFull() error {
	if c.inc.active || c.inc.pending != nil {
		return c.incParts().finish()
	}
	c.heap.AssertNoBuffers("full collection")
	c.prep() // root scan and sweep share this pause; one gather covers both
	c.tele.CycleBegin()
	start := time.Now()
	// A lazy sweep still pending from the previous cycle must finish before
	// this trace: its unswept ranges carry stale mark bits and uninstalled
	// free runs. The leftover reclamation is charged to this pause.
	leftover := c.stats.timedPhase(c.heap.CompleteSweep)
	c.tracer.Reset()

	var sweepClear uint64
	var onFree func(vmheap.Ref, uint64)
	markFull(c.tracer, c.engine, c.roots, c.mode)
	if c.mode == Infrastructure {
		c.engine.CheckInstanceLimits()
		c.engine.PreSweep(func(r vmheap.Ref) bool {
			return c.heap.Flags(r, vmheap.FlagMark) != 0
		})
		sweepClear = c.engine.SweepFlags()
		onFree = c.engine.FreeHook()
	}

	ts := c.tracer.Stats()
	// The stop-the-world trace counted every mark, so a lazy sweep can skip
	// its census walk entirely (vmheap.SweepOptions.MarkedKnown).
	sw := c.stats.timedSweep(leftover, func() vmheap.SweepStats {
		return c.heap.Sweep(vmheap.SweepOptions{
			ClearFlags: sweepClear, OnFree: onFree,
			MarkedKnown: true, MarkedObjects: ts.Visited, MarkedWords: ts.VisitedWords,
		})
	})

	elapsed := time.Since(start)
	c.tele.Pause(elapsed)
	c.stats.Collections++
	c.stats.FullCollections++
	c.stats.GCTime += elapsed
	c.stats.FullGCTime += elapsed
	c.stats.addPause(elapsed)
	c.stats.MarkedObjects += ts.Visited
	c.stats.FreedObjects += sw.FreedObjects
	c.stats.FreedWords += sw.FreedWords
	c.stats.LastLiveWords = sw.LiveWords
	c.stats.addTrace(ts)

	if c.mode == Infrastructure {
		if v := c.engine.Halted(); v != nil {
			return &report.HaltError{Violation: v}
		}
	}
	return nil
}

// CollectZone performs one collection of a single zone of a zone-sharded
// heap. The zone's roots are the runtime root set (references into other
// zones are inert to the zone-gated trace) plus the caller-supplied
// remembered-set slots: absolute arena word addresses in OTHER zones known
// to hold references into z. The trace treats each such slot exactly like a
// root slot — it is path-tracked, null-forced for assert-dead Force
// verdicts (onSlotNulled reports any slot the trace nulled so the caller
// can drop its remembered-set entry), and counts as one encounter for the
// unshared check, which is what makes per-zone verdicts match a whole-heap
// collection's slot for slot.
//
// Only z is swept; other zones' allocation buffers stay live, which is the
// zone isolation property (no cross-zone pause). The zone trace is always
// serial, and always runs the infrastructure loop when an engine is present
// (ownership assertions do not reach here: the runtime escalates to a full
// collection while any ownership assertion is registered).
//
// CollectZone returns this zone's partial instance counts, drained from the
// registry in trackedIDs order; the runtime sums them across a full zone
// rotation and judges limits with Engine.CheckInstanceTotals, since a
// single zone's count says nothing about the whole-heap total.
func (c *MarkSweep) CollectZone(z *vmheap.Heap, slots []uint32, onSlotNulled func(uint32)) ([]int64, error) {
	if c.inc.active || c.inc.pending != nil {
		if err := c.incParts().finish(); err != nil {
			return nil, err
		}
	}
	c.tele.CycleBegin()
	start := time.Now()
	// Pending lazy sweeps must settle in this zone only; other zones keep
	// their pending state (and their mutators keep allocating).
	leftover := c.stats.timedPhase(z.ZoneCompleteSweep)
	c.tracer.ResetZone(z)

	if c.engine != nil {
		c.engine.BeginCycle()
		c.tracer.SetChecks(c.engine.Checks())
	}
	c.tracer.TraceInfraZone(c.roots, slots, onSlotNulled)
	counts := c.reg.TakeCounts()

	var sweepClear uint64
	var onFree func(vmheap.Ref, uint64)
	if c.engine != nil {
		c.engine.PreSweep(func(r vmheap.Ref) bool {
			return !z.Contains(r) || c.heap.Flags(r, vmheap.FlagMark) != 0
		})
		sweepClear = c.engine.SweepFlags()
		onFree = c.engine.FreeHook()
	}

	ts := c.tracer.Stats()
	// The zone trace is serial and zone-gated, so its visit counts are the
	// zone's exact live census: the walkless lazy-sweep arm stays available.
	sw := c.stats.timedSweep(leftover, func() vmheap.SweepStats {
		return z.ZoneSweep(vmheap.SweepOptions{
			ClearFlags:    sweepClear,
			OnFree:        onFree,
			MarkedKnown:   true,
			MarkedObjects: ts.Visited,
			MarkedWords:   ts.VisitedWords,
		})
	})

	elapsed := time.Since(start)
	c.tele.Pause(elapsed)
	c.stats.Collections++
	c.stats.ZoneCollections++
	c.stats.GCTime += elapsed
	c.stats.addPause(elapsed)
	c.stats.MarkedObjects += ts.Visited
	c.stats.FreedObjects += sw.FreedObjects
	c.stats.FreedWords += sw.FreedWords
	c.stats.addTrace(ts)

	if c.engine != nil {
		if v := c.engine.Halted(); v != nil {
			return counts, &report.HaltError{Violation: v}
		}
	}
	return counts, nil
}

// ---------------------------------------------------------------------------
// Concurrent zone collection (phased)
//
// The serialized CollectZone above runs whole collections back to back under
// the runtime lock. The phased API below splits one zone collection into the
// three pieces the runtime's per-zone locking needs so that several zones can
// be collected simultaneously, overlapped with mutators in third zones:
//
//	zc := c.BeginZone(z)            // zone lock only
//	zc.Scan(targets, null)          // zone lock + runtime lock (the pause)
//	out := zc.Finish()              // zone lock only — drain and sweep
//	c.FoldZone(out)                 // runtime lock — fold stats
//
// BeginZone/Finish touch only zone-local heap state plus the engine's own
// lock (PreSweep, free hooks), so concurrent calls for different zones are
// safe. Scan runs under the runtime lock: it snapshots the roots and the
// pre-resolved remembered-set targets while mutators are excluded, which is
// what makes the subsequent lock-free drain sound (every reference into the
// zone a mutator could later hand over is already grey or protected by the
// zone lock). FoldZone serializes the stats merge.

// ZoneOutcome carries one concurrent zone collection's results from the
// drain/sweep phase (zone lock only) to FoldZone (runtime lock).
type ZoneOutcome struct {
	Elapsed    time.Duration
	SweepPause time.Duration // leftover lazy sweep + this sweep, for SweepPauseLog
	Trace      trace.Stats
	Sweep      vmheap.SweepStats
	// Counts holds the tracer-local instance census for this zone, keyed by
	// class ID (nil when nothing was counted). The runtime sums counts
	// across a rotation and judges limits with Engine.CheckInstanceTotals.
	Counts map[uint32]int64
	// Halt is the violation that requested Halt during this collection, if
	// any (cycle-private: concurrent collections never see each other's).
	Halt *report.Violation
}

// ZoneCollection is one in-flight concurrent zone collection.
type ZoneCollection struct {
	c        *MarkSweep
	z        *vmheap.Heap
	tracer   *trace.Tracer
	cyc      *assertions.Cycle
	start    time.Time
	leftover time.Duration
}

// zoneTracer returns the zone's private tracer, creating it on first use.
func (c *MarkSweep) zoneTracer(z *vmheap.Heap) *trace.Tracer {
	c.zmu.Lock()
	defer c.zmu.Unlock()
	t := c.zoneTracers[z]
	if t == nil {
		t = trace.New(c.heap, c.reg)
		t.SetTelemetry(c.tele)
		if c.zoneTracers == nil {
			c.zoneTracers = make(map[*vmheap.Heap]*trace.Tracer)
		}
		c.zoneTracers[z] = t
	}
	return t
}

// BeginZone starts a concurrent collection of z. The caller holds z's zone
// lock (not the runtime lock) and guarantees no incremental or pacer cycle is
// active — the runtime's zone-collection ticket (see core) excludes them.
func (c *MarkSweep) BeginZone(z *vmheap.Heap) *ZoneCollection {
	if c.inc.active || c.inc.pending != nil {
		panic("gc: BeginZone with an incremental cycle in flight")
	}
	c.tele.CycleBegin()
	zc := &ZoneCollection{c: c, z: z, start: time.Now()}
	// Pending lazy sweep must settle in this zone before its mark bits are
	// reused; zone-local, so the zone lock suffices.
	zc.leftover = c.stats.timedPhase(z.ZoneCompleteSweep)
	zc.tracer = c.zoneTracer(z)
	zc.tracer.ResetZoneConcurrent(z)
	return zc
}

// Scan runs the collection's pause phase under the runtime lock (held by the
// caller, along with the zone lock): root scan plus the pre-resolved
// remembered-set slot scan. targets were resolved by the runtime under the
// remembered-set lock; null is invoked for every slot whose target the trace
// force-nulls, so the runtime can drop the entry.
func (zc *ZoneCollection) Scan(targets []trace.SlotTarget, null func(slot uint32)) {
	if e := zc.c.engine; e != nil {
		zc.cyc = e.NewCycle()
		zc.tracer.SetChecks(e.ChecksFor(zc.cyc))
	}
	zc.tracer.ZoneRootScan(zc.c.roots)
	zc.tracer.ZoneSlotScan(targets, null)
}

// Finish drains the mark worklist and sweeps the zone, with only the zone
// lock held: mutators in other zones run throughout. Returns the outcome for
// FoldZone.
func (zc *ZoneCollection) Finish() ZoneOutcome {
	c := zc.c
	zc.tracer.ZoneDrain()

	var sweepClear uint64
	var onFree func(vmheap.Ref, uint64)
	if c.engine != nil {
		z := zc.z
		c.engine.PreSweep(func(r vmheap.Ref) bool {
			return !z.Contains(r) || c.heap.Flags(r, vmheap.FlagMark) != 0
		})
		sweepClear = c.engine.SweepFlags()
		onFree = c.engine.FreeHook()
	}

	ts := zc.tracer.Stats()
	// Only this zone's tracer marks this zone's objects (other concurrent
	// tracers are gated out), so its visit counts are the zone's exact live
	// census and the walkless lazy-sweep arm stays available.
	t0 := time.Now()
	sw := zc.z.ZoneSweep(vmheap.SweepOptions{
		ClearFlags:    sweepClear,
		OnFree:        onFree,
		MarkedKnown:   true,
		MarkedObjects: ts.Visited,
		MarkedWords:   ts.VisitedWords,
	})
	sweepPause := zc.leftover + time.Since(t0)

	elapsed := time.Since(zc.start)
	c.tele.Pause(elapsed)
	out := ZoneOutcome{
		Elapsed:    elapsed,
		SweepPause: sweepPause,
		Trace:      ts,
		Sweep:      sw,
		Counts:     zc.tracer.LocalCounts(),
	}
	if zc.cyc != nil {
		out.Halt = zc.cyc.Halted()
		// Last read of the cycle's state: its dedupe tables go back to
		// the engine pool for the next collection.
		c.engine.ReleaseCycle(zc.cyc)
		zc.cyc = nil
	}
	return out
}

// FoldZone merges one concurrent zone collection's outcome into the
// collector statistics. The caller holds the runtime lock. The Elapsed
// interval is charged as a pause: it is a zone-local stoppage — that zone's
// mutators stall for the duration — even though the world keeps running.
func (c *MarkSweep) FoldZone(o ZoneOutcome) {
	c.stats.Collections++
	c.stats.ZoneCollections++
	c.stats.GCTime += o.Elapsed
	c.stats.addPause(o.Elapsed)
	if c.stats.RecordPauses {
		c.stats.SweepPauseLog = append(c.stats.SweepPauseLog, o.SweepPause)
	}
	c.stats.MarkedObjects += o.Trace.Visited
	c.stats.FreedObjects += o.Sweep.FreedObjects
	c.stats.FreedWords += o.Sweep.FreedWords
	c.stats.addTrace(o.Trace)
}
