// Package telemetry is the runtime's observability subsystem: a
// fixed-size, allocation-free event stream the collector, tracer, sweeper
// and allocator emit into, with per-phase latency histograms and monotonic
// counters on top.
//
// The paper's pitch is that assertion checking piggybacks on collection at
// a few percent overhead; this package is how a deployment *observes* that
// overhead in flight rather than taking it on faith. Design constraints,
// in order:
//
//   - Zero allocation on the emit path. Events are fixed-size structs
//     written into a preallocated ring; the optional NDJSON sink encodes
//     into a reusable scratch buffer with strconv appends, never
//     fmt/encoding-json. A disabled recorder (nil *Recorder) costs one
//     branch per emit point — every method is nil-safe — so the published
//     figures are byte-identical with telemetry off.
//
//   - Bounded memory. The ring holds the last RingSize events; older ones
//     are overwritten (counted in Dropped). Histograms are fixed arrays of
//     log2 buckets.
//
//   - One lock. Emit points already run under the runtime lock or inside
//     stop-the-world pauses; the recorder's own mutex exists only so
//     Metrics() and the buffer-stats fold can snapshot concurrently with a
//     mutator-side carve/retire. It is a leaf lock: nothing is acquired
//     under it.
//
// Exports: Metrics() returns a point-in-time snapshot; WritePrometheus
// renders it in Prometheus text exposition format; PublishExpvar registers
// it as an expvar variable; the NDJSON stream is consumed by cmd/gcmon and
// ReadEvents.
package telemetry

import (
	"expvar"
	"io"
	"sync"
	"time"
)

// Phase identifies one collector phase for events and histograms.
type Phase uint8

const (
	// PhaseMark is a serial stop-the-world mark (Base or Infrastructure).
	PhaseMark Phase = iota
	// PhaseOwnership is the owner-first pre-phase of assert-ownedby.
	PhaseOwnership
	// PhaseMinorMark is a generational minor (nursery) trace.
	PhaseMinorMark
	// PhaseSweep is one sweep pass (eager, parallel, or the lazy census).
	PhaseSweep
	// PhaseLazySegment is one deferred segment sweep performed on
	// allocation demand under the lazy sweep mode.
	PhaseLazySegment
	// PhaseIncRoots is the snapshot pause that starts an incremental cycle.
	PhaseIncRoots
	// PhaseIncSlice is one bounded incremental mark slice.
	PhaseIncSlice
	// PhaseIncBarrier is one snapshot-at-beginning barrier scan.
	PhaseIncBarrier
	// PhaseIncFinish is the completion pause of an incremental cycle.
	PhaseIncFinish
	// PhaseAssist is one mutator assist: bounded mark work a thread
	// performs at an allocation because it outran the concurrent tracer.
	PhaseAssist

	numPhases
)

// phaseNames are the wire and metric names; indexes match the constants.
var phaseNames = [numPhases]string{
	"mark", "ownership", "minor_mark",
	"sweep", "lazy_segment", "inc_roots", "inc_slice", "inc_barrier", "inc_finish",
	"assist",
}

// String returns the phase's wire name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// EventKind identifies the kind of one ring/NDJSON event.
type EventKind uint8

const (
	// KindCycleBegin marks the start of a collection (full, minor, or
	// incremental cycle).
	KindCycleBegin EventKind = iota
	// KindPhaseBegin and KindPhaseEnd bracket one phase; the end event
	// carries the duration.
	KindPhaseBegin
	KindPhaseEnd
	// KindPause is one stop-the-world interval.
	KindPause
	// KindCarve is one allocation-buffer carve (Value = words carved).
	KindCarve
	// KindRetire is one buffer retirement (Value = used words, Value2 =
	// tail words returned to the free lists).
	KindRetire
	// KindViolation is one assertion violation (Value = report.Kind code).
	KindViolation
	// KindTrigger is one concurrent-pacer cycle trigger (Value = used
	// words at the trigger, Value2 = the trigger threshold in words).
	KindTrigger
	// KindAssist is one mutator assist (Value = duration in nanoseconds,
	// Value2 = mark slices performed).
	KindAssist
	// KindRequest is one served application request (Value = duration in
	// nanoseconds, Value2 = the interned op code registered via RequestOp).
	// This is the serving-workload emit point: request latency lands in the
	// same stream and histograms as GC phases, so tail latency and pauses
	// can be correlated line for line.
	KindRequest

	numKinds
)

var kindNames = [numKinds]string{
	"cycle_begin", "phase_begin", "phase_end", "pause", "carve", "retire", "violation",
	"trigger", "assist", "request",
}

// String returns the kind's wire name.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one fixed-size telemetry record. The meaning of Value/Value2
// depends on Kind (see the EventKind constants).
type Event struct {
	Seq     uint64
	AtNanos int64 // nanoseconds since the recorder was created
	Kind    EventKind
	Phase   Phase
	Cycle   uint64
	Value   uint64
	Value2  uint64
}

// Config configures a Recorder (core.Config.Telemetry carries one).
type Config struct {
	// RingSize is the number of events retained in memory; 0 selects
	// DefaultRingSize.
	RingSize int
	// Sink, when non-nil, receives every event as one NDJSON line. Write
	// errors are counted (Metrics.SinkErrors), never propagated: telemetry
	// must not take the mutator down with it.
	Sink io.Writer
}

// DefaultRingSize is the event ring capacity when Config leaves it zero.
const DefaultRingSize = 4096

// Recorder is the telemetry hub one Runtime emits into. The zero of
// *Recorder (nil) is a valid, disabled recorder: every method no-ops.
type Recorder struct {
	mu    sync.Mutex
	start time.Time

	ring []Event
	seq  uint64 // events ever emitted; ring slot = (seq-1) % len(ring)

	cycle uint64 // current collection cycle (CycleBegin increments)

	hists  [numPhases]Histogram
	pauses Histogram

	carves     uint64
	carveWords uint64
	retires    uint64
	usedWords  uint64
	tailWords  uint64
	violations uint64

	triggers     uint64
	assists      uint64
	assistSlices uint64

	violationKinds [256]uint64
	// violationNames interns the report.Kind code → name mapping so the
	// NDJSON stream carries readable assertion names without this package
	// importing the report package (telemetry is a leaf).
	violationNames [256]string

	// Request-span state: op names are interned up front (RequestOp), so
	// the per-request emit is one histogram fold and one ring write with no
	// map lookup. reqHists[i] pairs with reqNames[i].
	reqNames [MaxRequestOps]string
	reqHists [MaxRequestOps]Histogram
	reqOps   int
	requests uint64

	writeErrs uint64 // report-writer failures (CountWriteError)
	sinkErrs  uint64

	// Dense side-table footprint gauges (internal/sidetab), refreshed by
	// the runtime at snapshot time: materialized chunk bytes and lifetime
	// epoch rollovers across the assertion engine's tables.
	sideTabBytes uint64
	sideTabRolls uint64

	sink    io.Writer
	scratch []byte // reusable NDJSON line buffer
}

// New creates a recorder. The returned recorder is ready to emit; attach
// it to a runtime via core.Config.Telemetry.
func New(cfg Config) *Recorder {
	size := cfg.RingSize
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Recorder{
		start:   time.Now(),
		ring:    make([]Event, size),
		sink:    cfg.Sink,
		scratch: make([]byte, 0, 160),
	}
}

// emit appends one event to the ring (and the sink). Caller holds r.mu.
func (r *Recorder) emit(e Event) {
	r.seq++
	e.Seq = r.seq
	e.AtNanos = int64(time.Since(r.start))
	r.ring[(r.seq-1)%uint64(len(r.ring))] = e
	if r.sink != nil {
		r.scratch = r.appendEventJSON(r.scratch[:0], &e)
		if _, err := r.sink.Write(r.scratch); err != nil {
			r.sinkErrs++
		}
	}
}

// CycleBegin records the start of one collection; subsequent events carry
// the new cycle number.
func (r *Recorder) CycleBegin() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cycle++
	r.emit(Event{Kind: KindCycleBegin, Cycle: r.cycle})
	r.mu.Unlock()
}

// Begin emits a phase-begin event and returns the start time for the
// matching End call. On a nil recorder it returns the zero time without
// touching the clock.
func (r *Recorder) Begin(p Phase) time.Time {
	if r == nil {
		return time.Time{}
	}
	r.mu.Lock()
	r.emit(Event{Kind: KindPhaseBegin, Phase: p, Cycle: r.cycle})
	r.mu.Unlock()
	return time.Now()
}

// End emits the phase-end event matching a Begin and feeds the phase
// histogram.
func (r *Recorder) End(p Phase, start time.Time) {
	if r == nil {
		return
	}
	d := time.Since(start)
	r.mu.Lock()
	r.hists[p].Observe(uint64(d))
	r.emit(Event{Kind: KindPhaseEnd, Phase: p, Cycle: r.cycle, Value: uint64(d)})
	r.mu.Unlock()
}

// Span emits a begin/end pair for a phase whose duration the caller
// already measured (the collectors time their incremental intervals for
// pause accounting regardless of telemetry).
func (r *Recorder) Span(p Phase, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.emit(Event{Kind: KindPhaseBegin, Phase: p, Cycle: r.cycle})
	r.hists[p].Observe(uint64(d))
	r.emit(Event{Kind: KindPhaseEnd, Phase: p, Cycle: r.cycle, Value: uint64(d)})
	r.mu.Unlock()
}

// Pause records one stop-the-world interval.
func (r *Recorder) Pause(d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.pauses.Observe(uint64(d))
	r.emit(Event{Kind: KindPause, Cycle: r.cycle, Value: uint64(d)})
	r.mu.Unlock()
}

// Carve records one allocation-buffer carve of `words` words.
func (r *Recorder) Carve(words uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.carves++
	r.carveWords += words
	r.emit(Event{Kind: KindCarve, Cycle: r.cycle, Value: words})
	r.mu.Unlock()
}

// Retire records one buffer retirement: used words kept as objects, tail
// words returned to the free lists.
func (r *Recorder) Retire(used, tail uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.retires++
	r.usedWords += used
	r.tailWords += tail
	r.emit(Event{Kind: KindRetire, Cycle: r.cycle, Value: used, Value2: tail})
	r.mu.Unlock()
}

// Trigger records one concurrent-pacer cycle trigger: the heap had
// usedWords allocated when the triggerWords threshold tripped.
func (r *Recorder) Trigger(usedWords, triggerWords uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.triggers++
	r.emit(Event{Kind: KindTrigger, Cycle: r.cycle, Value: usedWords, Value2: triggerWords})
	r.mu.Unlock()
}

// Assist records one mutator assist of d covering `slices` mark slices,
// feeding the assist-phase histogram.
func (r *Recorder) Assist(d time.Duration, slices uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.assists++
	r.assistSlices += slices
	r.hists[PhaseAssist].Observe(uint64(d))
	r.emit(Event{Kind: KindAssist, Cycle: r.cycle, Value: uint64(d), Value2: slices})
	r.mu.Unlock()
}

// Violation records one assertion violation. code is the report.Kind
// value; name its String() (stored once per code for the NDJSON stream).
func (r *Recorder) Violation(code uint8, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.violations++
	r.violationKinds[code]++
	if r.violationNames[code] == "" {
		r.violationNames[code] = name
	}
	r.emit(Event{Kind: KindViolation, Cycle: r.cycle, Value: uint64(code)})
	r.mu.Unlock()
}

// MaxRequestOps is the number of distinct request op names a recorder can
// intern. Serving workloads have a handful of endpoint names; the fixed
// table keeps the recorder allocation-free and the emit path map-free.
const MaxRequestOps = 32

// RequestOp interns a request op name and returns its code for Request.
// Registering the same name twice returns the same code. Names must be
// plain identifiers at heart — anything is accepted, but the NDJSON
// encoder escapes what it must, so exotic names cost allocation-free
// escaping on every emit. Returns -1 when the table is full (or on a nil
// recorder); Request ignores a negative code, so a producer with too many
// ops degrades to not recording the excess rather than failing.
func (r *Recorder) RequestOp(name string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.reqOps; i++ {
		if r.reqNames[i] == name {
			return i
		}
	}
	if r.reqOps >= MaxRequestOps {
		return -1
	}
	r.reqNames[r.reqOps] = name
	r.reqOps++
	return r.reqOps - 1
}

// Request records one served request of duration d under an op code from
// RequestOp, feeding the per-op histogram and the event stream. A negative
// or unregistered code is ignored.
func (r *Recorder) Request(op int, d time.Duration) {
	if r == nil || op < 0 {
		return
	}
	r.mu.Lock()
	if op < r.reqOps {
		r.requests++
		r.reqHists[op].Observe(uint64(d))
		r.emit(Event{Kind: KindRequest, Cycle: r.cycle, Value: uint64(d), Value2: uint64(op)})
	}
	r.mu.Unlock()
}

// SideTab sets the dense side-table footprint gauges: current bytes of
// materialized chunk storage and lifetime epoch rollovers. Gauges, not
// ring events — footprint changes on chunk materialization, far below the
// event cadence, so the runtime refreshes them when a snapshot is taken.
func (r *Recorder) SideTab(chunkBytes, rollovers uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sideTabBytes = chunkBytes
	r.sideTabRolls = rollovers
	r.mu.Unlock()
}

// CountWriteError counts one failed violation/event log write (the report
// package's writers call this through their OnWriteError hook), so a full
// disk that is silently dropping violations shows up in the counters.
func (r *Recorder) CountWriteError() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.writeErrs++
	r.mu.Unlock()
}

// CountWriteErrorHook adapts CountWriteError to the report writers'
// OnWriteError signature. Safe on a nil recorder.
func (r *Recorder) CountWriteErrorHook() func(error) {
	return func(error) { r.CountWriteError() }
}

// Events returns the retained events, oldest first. Intended for tests and
// debugging tools; the NDJSON sink is the production stream.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.seq
	size := uint64(len(r.ring))
	if n > size {
		n = size
	}
	out := make([]Event, 0, n)
	first := r.seq - n // count of events fallen off the ring
	for i := uint64(0); i < n; i++ {
		out = append(out, r.ring[(first+i)%size])
	}
	return out
}

// PhaseSummary is the per-phase slice of a Metrics snapshot. Quantiles
// come from log2-bucketed histograms, so they are upper bounds accurate to
// a factor of two; Max and TotalNanos are exact.
type PhaseSummary struct {
	Phase      string `json:"phase"`
	Count      uint64 `json:"count"`
	TotalNanos uint64 `json:"total_ns"`
	MaxNanos   uint64 `json:"max_ns"`
	P50Nanos   uint64 `json:"p50_ns"`
	P95Nanos   uint64 `json:"p95_ns"`
	P99Nanos   uint64 `json:"p99_ns"`
}

// summarize renders one histogram as a PhaseSummary.
func summarize(name string, h *Histogram) PhaseSummary {
	return PhaseSummary{
		Phase:      name,
		Count:      h.Count,
		TotalNanos: h.Sum,
		MaxNanos:   h.Max,
		P50Nanos:   h.Quantile(0.50),
		P95Nanos:   h.Quantile(0.95),
		P99Nanos:   h.Quantile(0.99),
	}
}

// ViolationCount is one assertion kind's violation total.
type ViolationCount struct {
	Kind  string `json:"kind"`
	Count uint64 `json:"count"`
}

// Metrics is a point-in-time snapshot of every telemetry counter and
// histogram. All counters are monotonic over a recorder's lifetime.
type Metrics struct {
	Events  uint64 `json:"events"`
	Dropped uint64 `json:"dropped"` // events overwritten in the ring
	Cycles  uint64 `json:"cycles"`

	Phases []PhaseSummary `json:"phases,omitempty"` // only phases that ran
	Pause  PhaseSummary   `json:"pause"`

	Carves     uint64 `json:"buffer_carves"`
	CarveWords uint64 `json:"buffer_carve_words"`
	Retires    uint64 `json:"buffer_retires"`
	UsedWords  uint64 `json:"buffer_used_words"`
	TailWords  uint64 `json:"buffer_tail_words"`

	// Concurrent-pacer counters: cycle triggers, mutator assists, and the
	// mark slices those assists performed. All zero unless ConcurrentGC ran.
	Triggers     uint64 `json:"gc_triggers"`
	Assists      uint64 `json:"gc_assists"`
	AssistSlices uint64 `json:"gc_assist_slices"`

	Violations       uint64           `json:"violations"`
	ViolationsByKind []ViolationCount `json:"violations_by_kind,omitempty"`

	// Request-span summaries, one per registered op that served at least
	// one request, in registration order. Quantiles are histogram bounds
	// like every other PhaseSummary; the offline gcmon summary over the
	// NDJSON stream is the exact-quantile view.
	Requests     []PhaseSummary `json:"requests,omitempty"`
	RequestCount uint64         `json:"request_count"`

	// Dense side-table footprint (internal/sidetab): materialized chunk
	// bytes across the assertion engine's tables (a gauge) and lifetime
	// epoch rollovers. Zero without assertions or in map-table mode.
	SideTabChunkBytes uint64 `json:"sidetab_chunk_bytes"`
	SideTabRollovers  uint64 `json:"sidetab_rollovers"`

	ReportWriteErrors uint64 `json:"report_write_errors"`
	SinkErrors        uint64 `json:"sink_errors"`
}

// Metrics snapshots the recorder. Safe on a nil recorder (zero snapshot)
// and concurrently with emitters.
func (r *Recorder) Metrics() Metrics {
	if r == nil {
		return Metrics{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := Metrics{
		Events:            r.seq,
		Cycles:            r.cycle,
		Pause:             summarize("pause", &r.pauses),
		Carves:            r.carves,
		CarveWords:        r.carveWords,
		Retires:           r.retires,
		UsedWords:         r.usedWords,
		TailWords:         r.tailWords,
		Triggers:          r.triggers,
		Assists:           r.assists,
		AssistSlices:      r.assistSlices,
		Violations:        r.violations,
		RequestCount:      r.requests,
		SideTabChunkBytes: r.sideTabBytes,
		SideTabRollovers:  r.sideTabRolls,
		ReportWriteErrors: r.writeErrs,
		SinkErrors:        r.sinkErrs,
	}
	if size := uint64(len(r.ring)); r.seq > size {
		m.Dropped = r.seq - size
	}
	for p := Phase(0); p < numPhases; p++ {
		if r.hists[p].Count > 0 {
			m.Phases = append(m.Phases, summarize(p.String(), &r.hists[p]))
		}
	}
	for i := 0; i < r.reqOps; i++ {
		if r.reqHists[i].Count > 0 {
			m.Requests = append(m.Requests, summarize(r.reqNames[i], &r.reqHists[i]))
		}
	}
	for code, n := range r.violationKinds {
		if n > 0 {
			name := r.violationNames[code]
			if name == "" {
				name = "unknown"
			}
			m.ViolationsByKind = append(m.ViolationsByKind, ViolationCount{Kind: name, Count: n})
		}
	}
	return m
}

// PublishExpvar registers the recorder's Metrics under name in the
// process-wide expvar registry, so any HTTP server exposing /debug/vars
// serves them. A no-op when the name is already taken (expvar.Publish
// panics on duplicates, and tests create many runtimes) or on a nil
// recorder.
func (r *Recorder) PublishExpvar(name string) {
	if r == nil || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Metrics() }))
}
