package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/assertions"
	"repro/internal/classes"
	"repro/internal/gc"
	"repro/internal/report"
	"repro/internal/roots"
	"repro/internal/sidetab"
	"repro/internal/telemetry"
	"repro/internal/threads"
	"repro/internal/vmheap"
)

// Ref is a managed-heap reference. The zero value is the null reference.
type Ref = vmheap.Ref

// Nil is the null reference.
const Nil = vmheap.Nil

// Class is runtime class metadata; obtain instances via DefineClass.
type Class = classes.Class

// Field declares one field in DefineClass.
type Field = classes.Field

// RefField declares a reference field (traced by the collector).
func RefField(name string) Field { return Field{Name: name, Kind: classes.RefKind} }

// DataField declares a raw 64-bit data field (ignored by tracing).
func DataField(name string) Field { return Field{Name: name, Kind: classes.DataKind} }

// Mode selects the collector configuration (see the paper's Figures 2-5).
type Mode = gc.Mode

// Collector configurations.
const (
	// Base is the unmodified collector; assertions are unavailable.
	Base = gc.Base
	// Infrastructure enables the assertion machinery on every full
	// collection. Registering assertions on top yields the paper's
	// "WithAssertions" configuration.
	Infrastructure = gc.Infrastructure
)

// CollectorKind selects the collection algorithm.
type CollectorKind uint8

const (
	// MarkSweep is the paper's full-heap mark-sweep collector.
	MarkSweep CollectorKind = iota
	// Generational is a two-generation variant that checks assertions
	// only at full-heap collections.
	Generational
)

// String names the collector for reports.
func (k CollectorKind) String() string {
	switch k {
	case MarkSweep:
		return "marksweep"
	case Generational:
		return "generational"
	}
	return fmt.Sprintf("CollectorKind(%d)", uint8(k))
}

// Config configures a Runtime. The zero value is not usable: HeapWords is
// required.
type Config struct {
	// HeapWords is the fixed heap capacity in 64-bit words. The paper
	// sizes heaps at twice the minimum live size of each benchmark.
	HeapWords int
	// Zones >= 2 shards the heap into that many contiguous zones, each
	// with private free lists and sweep state. Threads allocate from their
	// current zone (Thread.SetZone); cross-zone reference stores maintain
	// per-zone remembered sets; and each zone can be collected or retired
	// independently (Zone.Collect, Zone.Retire, Runtime.GCZones) without
	// pausing allocation in the others. 0 or 1 (the default — all
	// published figures use it) keeps the single whole-heap arena.
	// Requires the MarkSweep collector (the generational collector's
	// nursery policy is whole-heap).
	Zones int
	// Collector selects the algorithm (default MarkSweep).
	Collector CollectorKind
	// Mode selects Base or Infrastructure (default Infrastructure).
	Mode Mode
	// Handler receives assertion violations. When nil, violations are
	// only recorded (retrievable via Runtime.Violations).
	Handler report.Handler
	// GenMajorEvery overrides the generational collector's major-GC
	// policy (number of minors between majors); 0 keeps the default.
	GenMajorEvery int
	// GenMinorFloor overrides the fraction of the heap a minor collection
	// must free to avoid escalating to a major collection. 0 keeps the
	// default; a negative value disables escalation.
	GenMinorFloor float64
	// IncrementalBudget > 0 enables incremental full collections: the mark
	// phase runs in slices of that many objects interleaved with mutator
	// work (StartGC / GCStep / FinishGC, plus a per-allocation tax), behind
	// a snapshot-at-beginning write barrier, so assertion checks observe
	// the heap as it was when the cycle began. 0 (the default) keeps the
	// paper's stop-the-world collections — all published figures use it.
	// Requires Infrastructure mode.
	IncrementalBudget int
	// ConcurrentGC runs collection on a background pacer goroutine
	// (concurrent.go): a cycle is triggered when heap occupancy crosses
	// GCTriggerFraction, marking proceeds in IncrementalBudget-sized
	// slices interleaved with mutator work, and mutators that outrun the
	// tracer pay bounded assists at their next allocation slow path
	// instead of stalling for a full collection. Mid-cycle heap growth is
	// hard-capped at GCTriggerFraction × GCAssistSlack × capacity.
	// Requires Infrastructure mode; an IncrementalBudget of 0 defaults to
	// 512. The runtime owns a goroutine
	// while this is set — call Runtime.Close (after mutators quiesce) to
	// stop it and surface any background HaltError. Off by default: all
	// published figures use the paper's synchronous collections.
	ConcurrentGC bool
	// GCTriggerFraction is the used-words fraction of heap capacity that
	// triggers a concurrent cycle. 0 defaults to 0.5; must be in (0, 1).
	// Requires ConcurrentGC.
	GCTriggerFraction float64
	// GCAssistSlack caps mid-cycle heap growth at this fraction of the
	// trigger threshold; when growth would exceed the cap, the allocating
	// mutator completes the cycle instead. 0 defaults to 0.5; must be
	// positive. Requires ConcurrentGC.
	GCAssistSlack float64
	// LazySweep defers reclamation: a collection ends after the mark phase
	// plus a header-only census, and each heap segment is actually swept —
	// assertion-engine bookkeeping included — the first time the allocator
	// needs a chunk from it, so the post-mark pause drops to near zero.
	// Statistics, violations, and (once the deferred sweep completes) the
	// heap itself are identical to the eager mode (the paper's
	// configuration, which all published figures use).
	LazySweep bool
	// RecordPauses appends every stop-the-world pause to gc.Stats.PauseLog
	// so reports can compute per-pause percentiles (gcbench -fig sweep).
	// Off by default: the published figures never allocate the log.
	RecordPauses bool
	// AllocBuffers > 0 enables the bump-pointer allocation fast path: each
	// thread allocates from a private buffer of that many words carved off
	// the free lists in one piece, and the per-allocation bookkeeping
	// (stats, region-queue recording, the incremental trigger check) is
	// batched per buffer and flushed when the buffer is retired — at
	// refill, before every collection, and before any heap walk. Assertion
	// results are identical to the direct path; only object addresses
	// differ. While the runtime has a single mutator thread the bump path
	// runs without any lock; the first NewThread call switches it to a
	// per-thread spinlock (see NewThread's create-then-start contract).
	// Must be 0 (the default, the paper's direct free-list allocation —
	// all published figures use it) or at least vmheap.MinBufferWords, and
	// smaller than the heap.
	AllocBuffers int
	// ZoneGCWorkers > 0 lets the concurrent pacer (Config.ConcurrentGC)
	// collect individual zones in the background: when a zone's occupancy
	// crosses the trigger fraction of its capacity and the zone has grown
	// since it was last collected, a worker collects just that zone — with
	// only that zone's lock held, so mutators in other zones (and up to
	// ZoneGCWorkers-1 other zone collections) proceed concurrently. The
	// whole-heap trigger remains as a backstop for cross-zone garbage.
	// Requires Zones >= 2 and ZoneGCWorkers <= Zones; 0 (the default) keeps
	// pacing whole-heap. Explicit GCZonesConcurrent rotations choose their
	// worker count per call and do not require this field.
	ZoneGCWorkers int
	// Telemetry, when non-nil, attaches an event recorder to the runtime:
	// the collector, tracer, sweeper, and allocator emit phase spans,
	// pauses, buffer carve/retire events, and assertion violations into a
	// fixed-size ring (and, when Telemetry.Sink is set, an NDJSON stream).
	// Snapshots are available via Runtime.Metrics. nil — the default, and
	// the published configuration — compiles every emit point down to one
	// predictable nil-check branch.
	Telemetry *telemetry.Config
}

// Runtime is a managed heap plus its collector and assertion engine.
//
// Lock order (outermost first): zone locks in ascending index order, then
// rt.mu, then a thread's buffer spinlock (bufMu), then the engine guard
// (assertions.Engine.Guard), then a remembered-set table lock (remtab.mu).
// The world lock is all zone locks plus rt.mu; on an unzoned runtime it is
// rt.mu alone and every path below reduces to the classic single-lock
// runtime.
//
// On a zoned runtime, mutator accessors (fields.go, the allocation slow
// path) hold the zone locks of the objects they touch instead of rt.mu —
// that is what lets a zone collection run concurrently with mutators in
// other zones — plus rt.mu when the runtime also runs whole-heap
// incremental or pacer cycles (zonedMu), whose collector state and barriers
// are rt.mu-guarded. Whole-heap operations (GC, heap walks, assertion
// registration, class definition) take the world lock: with mutators no
// longer serialized by rt.mu, only holding every zone lock excludes them
// all. Root structures (globals, frames, pins) stay under rt.mu — a zone
// collection's root scan runs in its rt.mu-held setup phase.
type Runtime struct {
	mu sync.Mutex

	// zlocks has one mutex per zone (nil on an unzoned runtime). A zone's
	// lock is held, without rt.mu, for the drain and sweep of that zone's
	// collection — the concurrent phase — and by mutator accessors for the
	// zones of every object they read or write.
	zlocks []sync.Mutex

	// zonedMu: mutator accessors must take rt.mu in addition to zone locks
	// (zoned runtimes with incremental or pacer cycles; see the type doc).
	zonedMu bool

	// zoneGC counts in-flight concurrent zone collections and
	// zoneCollecting flags each zone's. Guarded by rt.mu. While zoneGC > 0
	// the pacer starts no whole-heap cycle and reads no cross-zone heap
	// aggregate (an in-flight zone sweep mutates its zone's counters with
	// only the zone lock held); whole-heap entry points need no check —
	// they hold the world lock, which blocks on each collection's zone
	// lock.
	zoneGC         int
	zoneCollecting []bool

	// zoneGCWorkers caps the pacer's simultaneous zone collections
	// (Config.ZoneGCWorkers; immutable after New).
	zoneGCWorkers int

	heap      *vmheap.Heap
	reg       *classes.Registry
	threads   *threads.Set
	globals   *roots.Table
	engine    *assertions.Engine // nil in Base mode
	collector gc.Collector
	mode      Mode

	rootSrc roots.Multi

	recorder *report.Recorder
	tele     *telemetry.Recorder // nil unless Config.Telemetry was set
	main     *Thread

	// Zone sharding (Config.Zones >= 2; all nil/empty otherwise except
	// zoneHeaps… see zones.go and remset.go). heap aliases zoneHeaps[0]
	// when zoned: every whole-heap vmheap operation aggregates over peers.
	zoneHeaps []*vmheap.Heap
	zones     []*Zone
	remsets   *remsets

	// retireSeen is the reusable survivor-dedupe scratch table for
	// Zone.Retire (created on first retire, cleared by epoch bump per
	// retire; guarded by the world lock).
	retireSeen *sidetab.Bits

	// Allocation-buffer mode (Config.AllocBuffers). allocBufWords is the
	// per-thread buffer size in words (0 = direct allocation); incremental
	// records whether the collector runs incremental cycles (which disable
	// the bump fast path while active); allThreads lists every Thread so
	// flushAllocBuffers can retire all outstanding buffers.
	allocBufWords uint32
	incremental   bool
	allThreads    []*Thread

	// Concurrent mode (Config.ConcurrentGC): pacer is the background
	// collection scheduler (nil otherwise — the field is immutable after
	// New, so the nil check needs no lock), and pinned holds the
	// hidden-register roots collectPins gathers before each root scan.
	// pinsOn (immutable after New) statically activates the pin ring when
	// the background pacer exists: its goroutine can complete a cycle — or
	// dispatch a concurrent zone collection — at any moment, including
	// between a mutator's allocation and the store publishing it. Every
	// other collection is driven by some mutator goroutine, so on a
	// single-thread runtime the ring stays off and reclamation stays
	// precise (an explicit GC between an allocation and its publishing
	// store discards the allocation — the documented root-it-first
	// contract). The moment a second mutator thread exists the same window
	// opens without any pacer — one goroutine can drive GC/GCStep/
	// Zone.Collect to completion inside another's allocate-to-publish
	// window — so the ring is also live whenever multiMutator is set (see
	// pinsActive).
	pacer  *gcPacer
	pinned pinnedRoots
	pinsOn bool

	// multiMutator is false until NewThread first runs and true forever
	// after. While false the runtime has exactly one mutator thread, owned
	// by the goroutine that created the runtime, so the bump-allocation
	// fast path elides the buffer spinlock: nothing else can observe the
	// buffer. NewThread flips the flag (under rt.mu, before the new Thread
	// is visible), and since Threads are created by their parent goroutine
	// before being handed to a new one — the managed-language
	// create-then-start order documented on NewThread — the flip
	// happens-before any second goroutine touches the runtime.
	multiMutator atomic.Bool
}

// pinsActive reports whether allocations must be noted in the pin ring:
// statically (pinsOn — concurrent or zoned runtimes) or dynamically, once
// a second mutator thread exists and any goroutine can complete a
// collection while another holds a just-allocated, not-yet-published Ref.
func (rt *Runtime) pinsActive() bool { return rt.pinsOn || rt.multiMutator.Load() }

// rootSource returns the aggregated root set (globals plus thread stacks).
func (rt *Runtime) rootSource() roots.Source { return rt.rootSrc }

// lockWorld acquires every zone lock in ascending order, then rt.mu:
// exclusive access to the entire runtime. On an unzoned runtime it is
// exactly rt.mu.
func (rt *Runtime) lockWorld() {
	for i := range rt.zlocks {
		rt.zlocks[i].Lock()
	}
	rt.mu.Lock()
}

// unlockWorld releases the world lock.
func (rt *Runtime) unlockWorld() {
	rt.mu.Unlock()
	for i := range rt.zlocks {
		rt.zlocks[i].Unlock()
	}
}

// lockObjZone locks the zone containing r (mutator accessor prologue),
// plus rt.mu when zonedMu requires it. A no-op returning false on an
// unzoned runtime — the caller then uses plain rt.mu.
func (rt *Runtime) lockObjZone(r Ref) {
	rt.zlocks[rt.heap.ZoneIndexOf(r)].Lock()
	if rt.zonedMu {
		rt.mu.Lock()
	}
}

func (rt *Runtime) unlockObjZone(r Ref) {
	if rt.zonedMu {
		rt.mu.Unlock()
	}
	rt.zlocks[rt.heap.ZoneIndexOf(r)].Unlock()
}

// New creates a runtime with the given configuration.
func New(cfg Config) *Runtime {
	if cfg.IncrementalBudget < 0 {
		panic("core: IncrementalBudget must not be negative")
	}
	if cfg.ConcurrentGC {
		if cfg.Mode != Infrastructure {
			panic("core: ConcurrentGC requires Infrastructure mode")
		}
		if cfg.GCTriggerFraction < 0 || cfg.GCTriggerFraction >= 1 {
			panic("core: GCTriggerFraction must be in (0, 1)")
		}
		if cfg.GCAssistSlack < 0 {
			panic("core: GCAssistSlack must be positive")
		}
		if cfg.IncrementalBudget == 0 {
			cfg.IncrementalBudget = defaultConcurrentBudget
		}
	} else if cfg.GCTriggerFraction != 0 || cfg.GCAssistSlack != 0 {
		panic("core: GCTriggerFraction and GCAssistSlack require ConcurrentGC")
	}
	if cfg.IncrementalBudget > 0 && cfg.Mode != Infrastructure {
		panic("core: IncrementalBudget requires Infrastructure mode")
	}
	if cfg.AllocBuffers < 0 {
		panic("core: AllocBuffers must not be negative")
	}
	if cfg.AllocBuffers > 0 && cfg.AllocBuffers < vmheap.MinBufferWords {
		panic(fmt.Sprintf("core: AllocBuffers %d below minimum %d (use 0 for direct allocation)", cfg.AllocBuffers, vmheap.MinBufferWords))
	}
	if cfg.AllocBuffers >= cfg.HeapWords {
		panic(fmt.Sprintf("core: AllocBuffers %d must be smaller than the heap (%d words)", cfg.AllocBuffers, cfg.HeapWords))
	}
	if cfg.Zones < 0 {
		panic("core: Zones must not be negative")
	}
	if cfg.Zones >= 2 && cfg.Collector != MarkSweep {
		panic("core: Zones requires the MarkSweep collector (the generational nursery policy is whole-heap)")
	}
	if cfg.ZoneGCWorkers < 0 {
		panic("core: ZoneGCWorkers must not be negative")
	}
	if cfg.ZoneGCWorkers > 0 {
		if cfg.Zones < 2 {
			panic("core: ZoneGCWorkers requires Zones >= 2")
		}
		if cfg.ZoneGCWorkers > cfg.Zones {
			panic(fmt.Sprintf("core: ZoneGCWorkers %d exceeds Zones %d", cfg.ZoneGCWorkers, cfg.Zones))
		}
		if !cfg.ConcurrentGC {
			panic("core: ZoneGCWorkers requires ConcurrentGC (it sizes the pacer's zone-collection workers)")
		}
	}
	rt := &Runtime{
		reg:      classes.NewRegistry(),
		threads:  threads.NewSet(),
		globals:  roots.NewTable(),
		mode:     cfg.Mode,
		recorder: &report.Recorder{},
	}
	if cfg.Zones >= 2 {
		rt.zoneHeaps = vmheap.NewZoned(cfg.HeapWords, cfg.Zones)
		rt.heap = rt.zoneHeaps[0]
		rt.remsets = newRemsets(rt.heap)
		rt.zones = make([]*Zone, cfg.Zones)
		rt.zlocks = make([]sync.Mutex, cfg.Zones)
		rt.zoneCollecting = make([]bool, cfg.Zones)
		rt.zonedMu = cfg.IncrementalBudget > 0 || cfg.ConcurrentGC
		rt.zoneGCWorkers = cfg.ZoneGCWorkers
		for i, zh := range rt.zoneHeaps {
			rt.zones[i] = &Zone{rt: rt, idx: i, h: zh}
			zh.SetFreeObserver(rt.remsets.onFree)
			if cfg.LazySweep {
				zh.SetDeferObserver(func() { rt.remsets.purgeDeadSources(i) })
			}
		}
	} else {
		rt.heap = vmheap.New(cfg.HeapWords)
		rt.zoneHeaps = []*vmheap.Heap{rt.heap}
	}
	rt.rootSrc = roots.Multi{rt.globals, rt.threads, &rt.pinned}
	src := rt.rootSrc

	if cfg.Telemetry != nil {
		rt.tele = telemetry.New(*cfg.Telemetry)
		// Violation log writers report failed writes into the telemetry
		// counters instead of dropping them on the floor.
		wireWriteErrors(cfg.Handler, rt.tele)
	}

	if cfg.Mode == Infrastructure {
		handlers := report.Tee{rt.recorder}
		if rt.tele != nil {
			handlers = append(handlers, teleHandler{rt.tele})
		}
		if cfg.Handler != nil {
			handlers = append(handlers, cfg.Handler)
		}
		handler := report.Handler(handlers)
		if len(handlers) == 1 {
			handler = rt.recorder
		}
		rt.engine = assertions.New(rt.heap, rt.reg, rt.threads, handler)
	}

	switch cfg.Collector {
	case MarkSweep:
		ms := gc.NewMarkSweep(rt.heap, rt.reg, src, cfg.Mode, rt.engine)
		ms.IncrementalBudget = cfg.IncrementalBudget
		ms.ConcurrentPacing = cfg.ConcurrentGC
		rt.collector = ms
	case Generational:
		g := gc.NewGenerational(rt.heap, rt.reg, src, cfg.Mode, rt.engine)
		g.IncrementalBudget = cfg.IncrementalBudget
		g.ConcurrentPacing = cfg.ConcurrentGC
		if cfg.GenMajorEvery > 0 {
			g.MajorEvery = cfg.GenMajorEvery
		}
		if cfg.GenMinorFloor != 0 {
			g.MinorFloor = max(cfg.GenMinorFloor, 0)
		}
		rt.collector = g
	default:
		panic(fmt.Sprintf("core: unknown collector kind %d", cfg.Collector))
	}
	for _, p := range rt.heap.Peers() {
		p.SetLazySweep(cfg.LazySweep)
		p.SetTelemetry(rt.tele)
	}
	rt.collector.SetTelemetry(rt.tele)
	// Hidden-register pins become roots at every root scan, and pin stamps
	// taken during an incremental cycle are re-certified before its
	// completion sweep (collectPins is a no-op until pins are active).
	rt.collector.SetPrepareRoots(rt.collectPins)
	rt.collector.Stats().RecordPauses = cfg.RecordPauses
	rt.allocBufWords = uint32(cfg.AllocBuffers)
	rt.incremental = cfg.IncrementalBudget > 0
	rt.pinsOn = cfg.ConcurrentGC

	rt.main = &Thread{rt: rt, th: rt.threads.New("main"), zheap: rt.heap}
	rt.allThreads = append(rt.allThreads, rt.main)

	if cfg.ConcurrentGC {
		// The pacer goroutine is a second accessor of every thread's
		// allocation buffer and hidden registers, so the single-mutator
		// lock elision is never sound in this mode.
		rt.multiMutator.Store(true)
		rt.pacer = newPacer(rt, cfg.GCTriggerFraction, cfg.GCAssistSlack)
		go rt.pacer.run()
	}
	return rt
}

// flushAllocBuffers retires every thread's allocation buffer, making the
// heap linearly parseable and its counters exact. Called before every
// collection, heap walk, and verification. A cheap no-op when buffers are
// disabled or none are active. Caller holds rt.mu.
func (rt *Runtime) flushAllocBuffers() {
	if rt.allocBufWords == 0 {
		return
	}
	for _, t := range rt.allThreads {
		t.flushBuffer()
	}
}

// DefineClass registers a new class with the given fields. World lock: the
// registry is read lock-free by in-flight concurrent zone traces.
func (rt *Runtime) DefineClass(name string, fields ...Field) *Class {
	rt.lockWorld()
	defer rt.unlockWorld()
	return rt.reg.MustDefine(name, nil, fields...)
}

// DefineSubclass registers a class extending super; inherited fields keep
// their offsets.
func (rt *Runtime) DefineSubclass(name string, super *Class, fields ...Field) *Class {
	rt.lockWorld()
	defer rt.unlockWorld()
	return rt.reg.MustDefine(name, super, fields...)
}

// ClassOf returns the class of the object at r.
func (rt *Runtime) ClassOf(r Ref) *Class {
	if rt.zlocks != nil {
		rt.lockObjZone(r)
		defer rt.unlockObjZone(r)
		return rt.reg.ByID(rt.heap.ClassID(r))
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.reg.ByID(rt.heap.ClassID(r))
}

// MainThread returns the runtime's initial thread.
func (rt *Runtime) MainThread() *Thread { return rt.main }

// NewThread creates an additional mutator thread. Like a managed
// language's Thread constructor, it must be called by a goroutine already
// running mutator code (typically the main one) *before* the new Thread is
// handed to the goroutine that will drive it — create, then start. The
// first call permanently switches the allocation fast path from its
// single-mutator lock-elided form to the spinlock-guarded one (see
// Runtime.multiMutator).
func (rt *Runtime) NewThread(name string) *Thread {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.multiMutator.Store(true)
	var th *threads.Thread
	if rt.engine != nil {
		// The engine iterates the thread set in PreSweep with only its own
		// guard held (concurrent zone collections run it without rt.mu), so
		// the append must serialize on that guard too.
		g := rt.engine.Guard()
		g.Lock()
		th = rt.threads.New(name)
		g.Unlock()
	} else {
		th = rt.threads.New(name)
	}
	t := &Thread{rt: rt, th: th, zheap: rt.heap}
	rt.allThreads = append(rt.allThreads, t)
	return t
}

// Global is a named static root.
type Global struct {
	rt *Runtime
	g  *roots.Global
}

// AddGlobal creates a named global root slot.
func (rt *Runtime) AddGlobal(name string) *Global {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return &Global{rt: rt, g: rt.globals.Add(name)}
}

// Get returns the reference held by the global.
func (g *Global) Get() Ref {
	g.rt.mu.Lock()
	defer g.rt.mu.Unlock()
	return g.g.Get()
}

// Set stores a reference into the global.
func (g *Global) Set(r Ref) {
	g.rt.mu.Lock()
	defer g.rt.mu.Unlock()
	g.g.Set(r)
}

// GC forces a full-heap collection (the kind that checks assertions). It
// returns a *report.HaltError if a violation handler requested Halt.
func (rt *Runtime) GC() error {
	rt.lockWorld()
	defer rt.unlockWorld()
	if err := rt.settlePacerCycleLocked(); err != nil {
		return err
	}
	// Flush before collecting pins (see startLocked): once every buffer is
	// retired no thread can add an unpinned allocation before the root scan.
	rt.flushAllocBuffers()
	rt.collectPins()
	return rt.collector.CollectFull()
}

// Collect runs one collection under the collector's own policy (for the
// generational collector this may be a minor collection, which checks no
// assertions).
func (rt *Runtime) Collect() error {
	rt.lockWorld()
	defer rt.unlockWorld()
	if err := rt.settlePacerCycleLocked(); err != nil {
		return err
	}
	// Flush before collecting pins (see startLocked): once every buffer is
	// retired no thread can add an unpinned allocation before the root scan.
	rt.flushAllocBuffers()
	rt.collectPins()
	return rt.collector.Collect()
}

// StartGC begins an incremental full collection: the snapshot root scan
// (and any ownership pre-phase) runs in one pause, and marking then
// proceeds in bounded slices — one per allocation as a tax, plus any GCStep
// calls — until FinishGC (or any forced full collection) completes the
// cycle. With IncrementalBudget == 0 it is equivalent to GC: one
// stop-the-world full collection. A no-op if a cycle is already active.
func (rt *Runtime) StartGC() error {
	rt.lockWorld()
	defer rt.unlockWorld()
	if err := rt.settlePacerCycleLocked(); err != nil {
		return err
	}
	// Flush before collecting pins (see startLocked): once every buffer is
	// retired no thread can add an unpinned allocation before the root scan.
	rt.flushAllocBuffers()
	rt.collectPins()
	return rt.collector.StartFull()
}

// GCStep runs one bounded mark slice of an active incremental cycle,
// completing the cycle (sweep and all end-of-cycle checks included) when
// marking finishes. It reports whether the cycle is complete; with no
// active cycle it reports true immediately.
func (rt *Runtime) GCStep() (done bool, err error) {
	rt.lockWorld()
	defer rt.unlockWorld()
	// A step that drains the worklist sweeps; under the pacer that must go
	// through its ledger, so settle the whole cycle instead of stepping it
	// behind the pacer's back.
	if err := rt.settlePacerCycleLocked(); err != nil {
		return true, err
	}
	rt.flushAllocBuffers()
	return rt.collector.StepFull()
}

// FinishGC drives any active incremental cycle to completion and returns
// its result (a *report.HaltError if a violation handler requested Halt —
// including one stashed from a cycle that completed inside the allocation
// tax). A no-op returning nil when no cycle is active and nothing is
// stashed.
func (rt *Runtime) FinishGC() error {
	rt.lockWorld()
	defer rt.unlockWorld()
	if err := rt.settlePacerCycleLocked(); err != nil {
		return err
	}
	rt.flushAllocBuffers()
	return rt.collector.FinishFull()
}

// GCActive reports whether an incremental collection cycle is in flight.
func (rt *Runtime) GCActive() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.collector.IncrementalActive()
}

// CompleteSweep drives any pending lazy sweep to completion (a no-op under
// the eager modes, or when nothing is pending). The deferred bookkeeping —
// hook calls, free-list installs — runs exactly as the allocator would have
// triggered it, just all at once.
func (rt *Runtime) CompleteSweep() {
	rt.lockWorld()
	defer rt.unlockWorld()
	rt.heap.CompleteSweep()
}

// SweepPending reports whether a lazy sweep has unswept segments
// outstanding.
func (rt *Runtime) SweepPending() bool {
	rt.lockWorld()
	defer rt.unlockWorld()
	return rt.heap.SweepPending()
}

// Violations returns the assertion violations recorded so far.
func (rt *Runtime) Violations() []*report.Violation {
	rt.lockWorld()
	defer rt.unlockWorld()
	out := make([]*report.Violation, len(rt.recorder.Violations))
	copy(out, rt.recorder.Violations)
	return out
}

// ResetViolations clears the recorded violations.
func (rt *Runtime) ResetViolations() {
	rt.lockWorld()
	defer rt.unlockWorld()
	rt.recorder.Reset()
}

// Mode returns the runtime's collector configuration.
func (rt *Runtime) Mode() Mode { return rt.mode }
