package assertions

import (
	"repro/internal/classes"
	"repro/internal/report"
	"repro/internal/sidetab"
	"repro/internal/trace"
	"repro/internal/vmheap"
)

// This file contains the collector-facing side of the engine: the hooks
// wired into the trace loops and the begin/end-of-cycle table maintenance.
//
// Cycle state is split out of the engine so collections can overlap: each
// concurrent zone collection owns a private Cycle (report deduplication,
// the cached Force decisions, and the Halt verdict are all per-collection),
// while the engine's long-lived tables (region objects, ownership, stats,
// the handler chain) are shared and guarded by e.mu. A Cycle is touched
// only by the goroutine driving its collection, so its tables need no lock;
// dispatch and every read of a shared table take e.mu internally. e.mu is
// ordered after the runtime lock and the zone locks and before nothing —
// no lock is ever acquired under it (the handler chain runs under it, so
// handlers must not re-enter the runtime; that was already the contract
// when they ran under the runtime lock).

// Cycle is the per-collection assertion state: one is live for each
// collection in flight. The whole-heap collectors use the engine's default
// cycle (BeginCycle/Checks/Halted); concurrent zone collections create
// their own with NewCycle/ChecksFor.
type Cycle struct {
	e   *Engine
	seq uint64

	// Per-cycle report deduplication: dense epoch-stamped tables drawn
	// from the engine pool. tabs.dead caches the handler's action so the
	// Force decision is applied consistently to every incoming reference
	// of the same object; the improper table is shared between the
	// ownership phase's improper-use reports and the root phase's
	// unowned-ownee reports, so one object yields at most one ownership
	// warning per cycle regardless of which phase sees it first.
	tabs *cycleTabs

	halt *report.Violation
}

// cycleTabs is one collection's set of dense dedupe tables. Released sets
// return to the engine pool cleared (an O(1) epoch bump each), so
// steady-state collections allocate nothing: the pool high-water mark is
// the maximum number of collections ever simultaneously in flight.
type cycleTabs struct {
	dead     *sidetab.Table[report.Action]
	shared   *sidetab.Bits
	improper *sidetab.Bits
}

// acquireTabs pops a cleared table set from the pool, or creates one.
func (e *Engine) acquireTabs() *cycleTabs {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.tabPool); n > 0 {
		t := e.tabPool[n-1]
		e.tabPool = e.tabPool[:n-1]
		return t
	}
	t := &cycleTabs{
		dead:     sidetab.NewTable[report.Action](),
		shared:   sidetab.NewBits(),
		improper: sidetab.NewBits(),
	}
	e.allTabs = append(e.allTabs, t)
	return t
}

// ReleaseCycle returns a cycle's dense tables to the engine pool, cleared.
// Call after the last read of the cycle's state (Halted is unaffected —
// the halt verdict lives on the Cycle itself). The whole-heap paths
// release via BeginCycle; the concurrent zone path releases at the end of
// ZoneCollection.Finish. A second release of the same cycle is a no-op.
func (e *Engine) ReleaseCycle(c *Cycle) {
	if c == nil || c.tabs == nil {
		return
	}
	t := c.tabs
	c.tabs = nil
	t.dead.Clear()
	t.shared.Clear()
	t.improper.Clear()
	e.mu.Lock()
	e.tabPool = append(e.tabPool, t)
	e.mu.Unlock()
}

// NewCycle creates a fresh cycle for one collection. Safe to call
// concurrently with other collections.
func (e *Engine) NewCycle() *Cycle {
	return &Cycle{e: e, seq: e.cycle.Add(1), tabs: e.acquireTabs()}
}

// BeginCycle prepares the engine's default cycle for a collection (the
// whole-heap path): per-cycle report deduplication is reset and the cycle
// counter advances. The outgoing cycle's tables return to the pool — its
// reports are never consulted again (a pending Halt was surfaced by the
// collection that produced it).
func (e *Engine) BeginCycle() {
	old := e.defaultCycle
	e.defaultCycle = e.NewCycle()
	e.ReleaseCycle(old)
}

// Halted returns the violation for which the handler requested Halt during
// the engine's default cycle, or nil.
func (e *Engine) Halted() *report.Violation { return e.defaultCycle.Halted() }

// Halted returns the violation for which the handler requested Halt during
// this cycle, or nil.
func (c *Cycle) Halted() *report.Violation {
	if c == nil {
		return nil
	}
	return c.halt
}

// Checks returns the assertion callouts for the Infrastructure trace loop,
// bound to the engine's default cycle.
func (e *Engine) Checks() trace.Checks { return e.ChecksFor(e.defaultCycle) }

// ChecksFor returns the assertion callouts bound to one collection's cycle.
func (e *Engine) ChecksFor(c *Cycle) trace.Checks {
	return trace.Checks{
		Dead:    c.onDead,
		Shared:  c.onShared,
		Unowned: c.onUnowned,
	}
}

// OwnershipPhase returns the phase descriptor for the collector, or nil when
// no ownership assertions are registered.
func (e *Engine) OwnershipPhase() *trace.OwnershipPhase {
	if !e.HasOwnership() {
		return nil
	}
	return &trace.OwnershipPhase{
		Owners:   e.owners,
		OwnerOf:  e.ownerOf,
		IsOwner:  func(r vmheap.Ref) bool { return e.heap.Flags(r, vmheap.FlagOwner) != 0 },
		Improper: e.defaultCycle.onImproper,
	}
}

// pathElems resolves a raw reference path into class-named elements.
func (e *Engine) pathElems(path []vmheap.Ref) []report.PathElem {
	out := make([]report.PathElem, len(path))
	for i, r := range path {
		out[i] = report.PathElem{Class: e.reg.Name(e.heap.ClassID(r)), Ref: r}
	}
	return out
}

// dispatch routes a violation to the handler and folds the returned action:
// Halt is recorded on the cycle for the collector to surface after the
// collection completes (the heap must reach a consistent state first), and
// the effective action for the tracer is returned. The stats bump and the
// handler call run under e.mu; the halt stash is cycle-private.
func (c *Cycle) dispatch(v *report.Violation) report.Action {
	e := c.e
	e.mu.Lock()
	e.stats.Violations++
	act := report.Continue
	if e.handler != nil {
		act = e.handler.HandleViolation(v)
	}
	e.mu.Unlock()
	if act == report.Halt {
		if c.halt == nil {
			c.halt = v
		}
		return report.Continue
	}
	return act
}

// onDead handles an encounter of a dead-asserted object during tracing. The
// handler runs once per object per cycle; its action is cached so Force is
// applied uniformly to every incoming reference.
func (c *Cycle) onDead(obj vmheap.Ref, path func() []vmheap.Ref) report.Action {
	if act, seen := c.tabs.dead.Get(uint32(obj)); seen {
		return act
	}
	e := c.e
	kind := report.DeadReachable
	if e.regionTab.Get(uint32(obj)) {
		kind = report.RegionSurvivor
	}
	v := &report.Violation{
		Kind:   kind,
		Cycle:  c.seq,
		Object: obj,
		Class:  e.reg.Name(e.heap.ClassID(obj)),
		Path:   e.pathElems(path()),
	}
	act := c.dispatch(v)
	c.tabs.dead.Set(uint32(obj), act)
	return act
}

// onShared handles the second encounter of an unshared-asserted object.
func (c *Cycle) onShared(obj vmheap.Ref, path func() []vmheap.Ref) {
	if !c.tabs.shared.Set(uint32(obj)) {
		return // already reported this cycle
	}
	e := c.e
	c.dispatch(&report.Violation{
		Kind:   report.SharedObject,
		Cycle:  c.seq,
		Object: obj,
		Class:  e.reg.Name(e.heap.ClassID(obj)),
		Path:   e.pathElems(path()),
	})
}

// onUnowned handles a root-phase visit of an ownee without the owned bit.
// It shares the improper table with onImproper — whichever phase reports
// an object first suppresses the other's warning — and records its own
// report, so an ownee reaching this hook through more than one phase (the
// root scan and the ownee-subtree drain both call it) warns exactly once
// per cycle.
func (c *Cycle) onUnowned(obj vmheap.Ref, path func() []vmheap.Ref) {
	if !c.tabs.improper.Set(uint32(obj)) {
		// Already reported as improper use during the ownership phase;
		// a second warning for the same object would be noise.
		return
	}
	e := c.e
	ownerName := "unknown owner"
	if idx, ok := e.ownerOf(obj); ok {
		if o := e.owners[idx]; o != vmheap.Nil {
			ownerName = e.reg.Name(e.heap.ClassID(o))
		}
	}
	c.dispatch(&report.Violation{
		Kind:   report.UnownedOwnee,
		Cycle:  c.seq,
		Object: obj,
		Class:  e.reg.Name(e.heap.ClassID(obj)),
		Path:   e.pathElems(path()),
		Owner:  ownerName,
	})
}

// onImproper handles an ownee reached from a different owner's scan.
func (c *Cycle) onImproper(obj vmheap.Ref, scanningOwner int, path func() []vmheap.Ref) {
	if !c.tabs.improper.Set(uint32(obj)) {
		return
	}
	e := c.e
	owner := "unknown owner"
	if o := e.owners[scanningOwner]; o != vmheap.Nil {
		owner = e.reg.Name(e.heap.ClassID(o))
	}
	c.dispatch(&report.Violation{
		Kind:   report.ImproperOwnership,
		Cycle:  c.seq,
		Object: obj,
		Class:  e.reg.Name(e.heap.ClassID(obj)),
		Path:   e.pathElems(path()),
		Owner:  owner,
	})
}

// CheckInstanceLimits runs at the end of the mark phase: tracked classes
// whose live counts exceed their limits are reported. No path is available
// (the paper's Section 2.7 limitation for assert-instances).
func (e *Engine) CheckInstanceLimits() {
	for _, over := range e.reg.CheckLimits() {
		e.defaultCycle.dispatch(&report.Violation{
			Kind:  report.TooManyInstances,
			Cycle: e.defaultCycle.seq,
			Class: over.Class.Name,
			Count: over.Count,
			Limit: over.Limit,
		})
	}
}

// CheckInstanceTotals judges instance limits against caller-summed counts
// (in Registry trackedIDs order, as drained by Registry.TakeCounts or
// folded by Registry.FoldLocalCounts). The zoned runtime uses this after a
// full zone rotation: each zone collection counts only its own zone's live
// instances, so only the sum across every zone is comparable to a
// whole-heap count. The check runs on its own cycle (the rotation that
// produced the counts may have spanned several per-zone cycles), so a
// handler-requested Halt is returned rather than stashed on the default
// cycle.
func (e *Engine) CheckInstanceTotals(counts []int64) *report.Violation {
	c := e.NewCycle()
	defer e.ReleaseCycle(c) // instance reports never touch the dedupe tables
	for _, over := range e.reg.CheckTotals(counts) {
		c.dispatch(&report.Violation{
			Kind:  report.TooManyInstances,
			Cycle: c.seq,
			Class: over.Class.Name,
			Count: over.Count,
			Limit: over.Limit,
		})
	}
	return c.halt
}

// ReportRetireSurvivor reports one object that survived a Zone.Retire: the
// zone was declared dead wholesale, but an out-of-zone reference or root
// still reaches this object. Retire is the bulk form of assert-alldead over
// a zone's allocations, so survivors carry the RegionSurvivor kind; no
// trace ran, so the path holds only the object itself. The caller brackets
// the whole retire in one BeginCycle and reports each survivor once.
func (e *Engine) ReportRetireSurvivor(obj vmheap.Ref) {
	e.defaultCycle.dispatch(&report.Violation{
		Kind:   report.RegionSurvivor,
		Cycle:  e.defaultCycle.seq,
		Object: obj,
		Class:  e.reg.Name(e.heap.ClassID(obj)),
		Path:   e.pathElems([]vmheap.Ref{obj}),
	})
}

// PreSweep runs after the mark phase and before the sweep, while unmarked
// objects are still parseable. It purges every engine table of entries
// about to be reclaimed, so no table ever holds a reference into freed (and
// reusable) memory:
//
//   - region queues drop dying entries (those objects were born and died
//     inside the region — the assertion holds for them);
//   - dying ownees leave the ownee table (the paper: "we must remove each
//     unreachable ownee after a GC");
//   - dying owners vacate their slot, and their surviving ownees' pairs are
//     dropped (ownership of a collected owner is no longer checkable).
//
// regionObjs is not purged here but by FreeHook during the sweep itself:
// keying the purge on actual reclamation (rather than on a liveness
// predicate that must agree with the sweep's) is what guarantees a recycled
// Ref can never inherit a previous object's region standing.
//
// The live predicate tells the engine which objects survive the imminent
// sweep: for a full collection that is the mark bit; for a generational
// minor collection, mark bit or maturity; for a zone collection, "outside
// the zone, or marked". The whole pass runs under e.mu so concurrent zone
// collections' purges, and mutator-side region recording, serialize
// against it.
func (e *Engine) PreSweep(live func(vmheap.Ref) bool) {
	marked := live

	e.mu.Lock()
	defer e.mu.Unlock()

	for _, t := range e.threads.All() {
		t.PurgeRegionQueues(marked)
	}

	if len(e.ownees) == 0 && len(e.owners) == 0 {
		return
	}

	// Vacate dying owners first so their ownees can be dropped in the
	// same pass.
	deadOwner := make([]bool, len(e.owners))
	var dying []vmheap.Ref
	for i, o := range e.owners {
		if o == vmheap.Nil {
			continue
		}
		if !marked(o) {
			deadOwner[i] = true
			dying = append(dying, o)
			e.ownerTab.Delete(uint32(o))
			// The object is about to be freed; its header dies with it,
			// so there is no bit to clear.
			e.owners[i] = vmheap.Nil
		}
	}
	// An owner is deliberately never marked by its own region's scans (back
	// edges must not keep a collectable owner alive), so an owner can die
	// while its region survives on the pre-phase marks. Null the survivors'
	// references into the dying owners — left in place they would dangle
	// into freed, recyclable memory.
	if len(dying) > 0 {
		e.nullRefsTo(dying, marked)
	}

	kept := e.ownees[:0]
	for _, entry := range e.ownees {
		switch {
		case !marked(entry.obj):
			// Dying ownee: drop the pair; the header dies with it.
		case deadOwner[entry.owner]:
			// Surviving ownee of a dead owner: drop the pair and clear
			// the stale ownee bit so the next trace does not misreport.
			e.heap.ClearFlags(entry.obj, vmheap.FlagOwnee|vmheap.FlagOwned)
		default:
			kept = append(kept, entry)
		}
	}
	e.ownees = kept
}

// nullRefsTo nulls every reference slot of a surviving object that points
// at one of the dying owner objects. Only objects marked by the ownership
// phase's truncation rules can hold such references (any root-phase scan
// reaching an owner would have marked it), so this runs only on cycles that
// actually collect an owner.
func (e *Engine) nullRefsTo(dying []vmheap.Ref, live func(vmheap.Ref) bool) {
	dead := make(map[vmheap.Ref]bool, len(dying))
	for _, r := range dying {
		dead[r] = true
	}
	h := e.heap
	h.Iterate(func(r vmheap.Ref, _ uint64) {
		if !live(r) {
			return
		}
		switch h.KindOf(r) {
		case vmheap.KindScalar:
			for _, off := range e.reg.RefOffsets(h.ClassID(r)) {
				if dead[h.RefAt(r, uint32(off))] {
					h.SetRefAt(r, uint32(off), vmheap.Nil)
				}
			}
		case vmheap.KindRefArray:
			n := h.ArrayLen(r)
			for i := uint32(0); i < n; i++ {
				if dead[vmheap.Ref(h.ArrayWord(r, i))] {
					h.SetArrayWord(r, i, 0)
				}
			}
		}
	})
}

// SweepFlags returns the header bits the sweep must clear on survivors:
// the owned bit is recomputed by each cycle's ownership phase.
func (e *Engine) SweepFlags() uint64 { return vmheap.FlagOwned }

// FreeHook returns the callback the collector passes as SweepOptions.OnFree,
// or nil when no per-object table has entries (so sweeps of
// assertion-free heaps pay no per-free call). It purges regionObjs as
// objects are reclaimed. Purging at reclamation time — instead of with a
// liveness predicate in PreSweep — closes the stale-entry window: a sweep
// whose liveness rules differ from the predicate (or a sweep driven without
// PreSweep at all) would otherwise leave regionObjs entries for freed Refs,
// and a later allocation recycling such a Ref would be misreported as a
// RegionSurvivor if it is ever asserted dead.
func (e *Engine) FreeHook() func(vmheap.Ref, uint64) {
	if e.regionTab.Len() == 0 {
		return nil
	}
	// The purge locks only the freed ref's zone shard, so concurrent zone
	// sweeps free without touching the engine guard.
	return func(r vmheap.Ref, _ uint64) { e.regionTab.Unset(uint32(r)) }
}

// InstanceLimitFor exposes a class's current limit (tools and tests).
func (e *Engine) InstanceLimitFor(c *classes.Class) int64 { return c.InstanceLimit() }
