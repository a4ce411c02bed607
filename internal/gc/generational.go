package gc

import (
	"time"

	"repro/internal/assertions"
	"repro/internal/classes"
	"repro/internal/report"
	"repro/internal/roots"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vmheap"
)

// Generational is a two-generation, non-moving mark-sweep collector.
// Objects are born immature; a minor collection traces only the immature
// population (from the roots plus a remembered set) and promotes survivors
// in place by setting the mature header bit. A major collection is a full
// MarkSweep cycle over both generations.
//
// Assertions are checked only at major collections. The paper calls this
// out as the cost of using a generational collector: "A generational
// collector, however, performs full-heap collections infrequently, allowing
// some assertions to go unchecked for long periods of time." The
// BenchmarkAblationGenerational bench quantifies that detection latency.
type Generational struct {
	heap   *vmheap.Heap
	tracer *trace.Tracer
	engine *assertions.Engine // nil in Base mode
	roots  roots.Source
	mode   Mode
	stats  Stats

	// remembered holds mature objects that may reference immature ones;
	// FlagRemember on the object dedupes insertions.
	remembered []vmheap.Ref

	// MajorEvery forces a major collection after this many consecutive
	// minors (default 4).
	MajorEvery int
	// MinorFloor: when a minor collection frees less than this fraction
	// of the heap, the next collection is major (default 0.10).
	MinorFloor float64

	// IncrementalBudget > 0 makes major collections incremental (see
	// MarkSweep.IncrementalBudget). Minor collections never run while a
	// major cycle is in flight — a minor sweep would recycle addresses the
	// major's snapshot still references.
	IncrementalBudget int

	// ConcurrentPacing hands major-cycle scheduling to core's background
	// pacer (see MarkSweep.ConcurrentPacing).
	ConcurrentPacing bool

	inc incCycle

	// prepareRoots, when non-nil, runs before every root scan and
	// completion sweep (see Collector.SetPrepareRoots).
	prepareRoots func()

	minorsSinceMajor int

	// tele, when non-nil, receives cycle/pause events (the tracer and heap
	// carry their own references for the phase spans).
	tele *telemetry.Recorder
}

// NewGenerational creates the collector. engine must be nil exactly when
// mode is Base.
func NewGenerational(h *vmheap.Heap, reg *classes.Registry, src roots.Source, mode Mode, engine *assertions.Engine) *Generational {
	if (mode == Base) != (engine == nil) {
		panic("gc: engine presence must match mode")
	}
	return &Generational{
		heap:       h,
		tracer:     trace.New(h, reg),
		engine:     engine,
		roots:      src,
		mode:       mode,
		MajorEvery: 4,
		MinorFloor: 0.10,
	}
}

// Name implements Collector.
func (c *Generational) Name() string { return "Generational" }

// Stats implements Collector.
func (c *Generational) Stats() *Stats { return &c.stats }

// SetTelemetry implements Collector.
func (c *Generational) SetTelemetry(rec *telemetry.Recorder) {
	c.tele = rec
	c.tracer.SetTelemetry(rec)
}

// WriteBarrier records a mature object into the remembered set the first
// time a reference is stored into it. Object-granularity remembering is
// conservative (the object may point only at mature children) but sound.
//
// A survivor of a pending lazy sweep does not carry FlagMature yet — its
// promotion happens when its range is swept — but the minor trace will
// already treat it as a boundary, so a store into it must be remembered
// now; PendingPromotion covers that window.
func (c *Generational) WriteBarrier(parent vmheap.Ref) {
	if parent == vmheap.Nil {
		return
	}
	h := c.heap.Header(parent)
	if h&vmheap.FlagRemember != 0 {
		return
	}
	if h&vmheap.FlagMature == 0 && !c.heap.PendingPromotion(parent) {
		return
	}
	c.heap.SetFlags(parent, vmheap.FlagRemember)
	c.remembered = append(c.remembered, parent)
}

// incParts assembles the shared incremental driver over this collector.
// The completion sweep is major-collection shaped: survivors are promoted
// and the remembered set is dropped.
func (c *Generational) incParts() incShared {
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
			c.dropRememberedSet()
			sw := c.heap.Sweep(vmheap.SweepOptions{
				ClearFlags: clear,
				SetFlags:   vmheap.FlagMature,
				OnFree:     onFree,
			})
			c.minorsSinceMajor = 0
			return sw
		},
	}
}

// SetPrepareRoots implements Collector.
func (c *Generational) SetPrepareRoots(fn func()) { c.prepareRoots = fn }

// prep runs the prepareRoots hook if one is installed.
func (c *Generational) prep() {
	if c.prepareRoots != nil {
		c.prepareRoots()
	}
}

// StartFull implements Collector (see MarkSweep.StartFull).
func (c *Generational) StartFull() error {
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

// StepFull implements Collector.
func (c *Generational) StepFull() (bool, error) { return c.incParts().step() }

// FinishFull implements Collector.
func (c *Generational) FinishFull() error { return c.incParts().finish() }

// IncrementalActive implements Collector.
func (c *Generational) IncrementalActive() bool { return c.inc.active }

// SnapshotBarrier implements Collector.
func (c *Generational) SnapshotBarrier(obj vmheap.Ref) {
	if !c.inc.active {
		return
	}
	c.incParts().snapshotBarrier(obj)
}

// DidAllocate implements Collector.
func (c *Generational) DidAllocate(r vmheap.Ref) {
	if c.IncrementalBudget <= 0 {
		return
	}
	c.incParts().didAllocate(r)
}

// DidRefill implements Collector: the per-buffer-refill incremental
// trigger check.
func (c *Generational) DidRefill() {
	if c.IncrementalBudget <= 0 {
		return
	}
	c.incParts().didRefill()
}

// StepMark implements Collector: one mark slice without cycle completion.
func (c *Generational) StepMark() bool { return c.incParts().stepMark() }

// CycleMarked implements Collector.
func (c *Generational) CycleMarked() uint64 { return c.tracer.Stats().Visited }

// Collect implements Collector: minor by default, escalating to major per
// policy. While a major incremental cycle is in flight the policy is
// overridden: the cycle is completed instead (a minor sweep would recycle
// addresses the snapshot still references).
func (c *Generational) Collect() error {
	if c.inc.active || c.inc.pending != nil {
		return c.incParts().finish()
	}
	if c.minorsSinceMajor >= c.MajorEvery {
		return c.CollectFull()
	}
	freedBefore := c.stats.FreedWords
	if err := c.collectMinor(); err != nil {
		return err
	}
	freed := c.stats.FreedWords - freedBefore
	if float64(freed) < c.MinorFloor*float64(c.heap.CapacityWords()) {
		return c.CollectFull()
	}
	return nil
}

// collectMinor traces and sweeps the immature generation only. No
// assertion checks run.
func (c *Generational) collectMinor() error {
	c.heap.AssertNoBuffers("minor collection")
	c.prep() // the minor sweep reclaims unpinned nursery objects too
	c.tele.CycleBegin()
	start := time.Now()
	// Finish any lazily pending sweep before tracing (stale mark bits).
	leftover := c.stats.timedPhase(c.heap.CompleteSweep)
	c.tracer.Reset()
	c.tracer.TraceMinor(c.roots, c.remembered)

	// Even though minor collections check nothing, the engine's tables
	// must not keep references to reclaimed nursery objects.
	var onFree func(vmheap.Ref, uint64)
	if c.engine != nil {
		c.engine.PreSweep(func(r vmheap.Ref) bool {
			return c.heap.Flags(r, vmheap.FlagMark|vmheap.FlagMature) != 0
		})
		onFree = c.engine.FreeHook()
	}

	c.dropRememberedSet()
	sw := c.stats.timedSweep(leftover, func() vmheap.SweepStats {
		return c.heap.Sweep(vmheap.SweepOptions{
			Immature: true,
			SetFlags: vmheap.FlagMature, // promote survivors in place
			OnFree:   onFree,
		})
	})

	elapsed := time.Since(start)
	c.tele.Pause(elapsed)
	ts := c.tracer.Stats()
	c.stats.Collections++
	c.stats.MinorCollections++
	c.stats.GCTime += elapsed
	c.stats.addPause(elapsed)
	c.stats.MarkedObjects += ts.Visited
	c.stats.FreedObjects += sw.FreedObjects
	c.stats.FreedWords += sw.FreedWords
	c.stats.LastLiveWords = sw.LiveWords
	c.stats.addTrace(ts)
	c.minorsSinceMajor++
	return nil
}

// CollectFull performs a major (full-heap) collection with assertion
// checking, and promotes all survivors. An in-flight incremental cycle is
// driven to completion instead.
func (c *Generational) CollectFull() error {
	if c.inc.active || c.inc.pending != nil {
		return c.incParts().finish()
	}
	c.heap.AssertNoBuffers("full collection")
	c.prep() // root scan and sweep share this pause; one gather covers both
	c.tele.CycleBegin()
	start := time.Now()
	// Finish any lazily pending sweep before tracing (stale mark bits).
	leftover := c.stats.timedPhase(c.heap.CompleteSweep)
	c.tracer.Reset()

	sweepSet := vmheap.FlagMature
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

	c.dropRememberedSet()
	ts := c.tracer.Stats()
	// The full-heap trace counted every mark, so a lazy sweep skips its
	// census. Minor collections keep the census: a minor trace never visits
	// mature survivors, so its totals do not describe the post-sweep live
	// set (and the escalation policy in Collect needs exact FreedWords).
	sw := c.stats.timedSweep(leftover, func() vmheap.SweepStats {
		return c.heap.Sweep(vmheap.SweepOptions{
			ClearFlags: sweepClear, SetFlags: sweepSet, OnFree: onFree,
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
	c.minorsSinceMajor = 0

	if c.mode == Infrastructure {
		if v := c.engine.Halted(); v != nil {
			return &report.HaltError{Violation: v}
		}
	}
	return nil
}

// dropRememberedSet clears the remembered set: after any collection every
// survivor is mature, so no mature-to-immature edges remain. It must run
// before the sweep, while every entry still points at a valid header.
func (c *Generational) dropRememberedSet() {
	for _, r := range c.remembered {
		c.heap.ClearFlags(r, vmheap.FlagRemember)
	}
	c.remembered = c.remembered[:0]
}
