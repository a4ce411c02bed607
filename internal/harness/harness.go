package harness

import (
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// RunConfig controls one measurement.
type RunConfig struct {
	// Warmup iterations run untimed (the paper iterates each benchmark
	// four times and keeps the fourth).
	Warmup int
	// Measure is the number of timed iterations per trial.
	Measure int
	// Trials is the number of independent repetitions (fresh runtime
	// each); the paper uses twenty.
	Trials int
	// SweepWorkers and LazySweep are passed through to core.Config and
	// select the sweep mode; the defaults keep the eager serial sweep the
	// published figures use.
	SweepWorkers int
	LazySweep    bool
	// AllocBufWords is passed through to core.Config.AllocBuffers: 0
	// keeps the direct free-list allocation the published figures use;
	// > 0 enables per-thread bump allocation buffers of that many words.
	AllocBufWords int
	// EventSink, when non-nil, enables telemetry on every measured runtime
	// and streams its NDJSON events here (gcbench -events). nil — the
	// default — measures with telemetry fully disabled, as published.
	EventSink io.Writer
}

// DefaultRunConfig mirrors the paper's shape at a scale that finishes in
// minutes rather than hours.
var DefaultRunConfig = RunConfig{Warmup: 3, Measure: 10, Trials: 5}

// Subject is anything the harness can measure: it builds its state on a
// fresh runtime and returns the per-iteration body.
type Subject struct {
	// Name appears in the figure row.
	Name string
	// HeapWords sizes the fixed heap (≈ twice minimum live).
	HeapWords int
	// Build constructs the subject on rt (classes, long-lived data,
	// assertions if the configuration calls for them) and returns the
	// iteration body.
	Build func(rt *core.Runtime) func()
	// Mode and Collector select the runtime configuration.
	Mode      core.Mode
	Collector core.CollectorKind
	// Label overrides the configuration name in the output (used for
	// "WithAssertions", which is Infrastructure mode plus assertions
	// registered by Build).
	Label string
}

// ConfigName returns the configuration label for figure columns.
func (s Subject) ConfigName() string {
	if s.Label != "" {
		return s.Label
	}
	return s.Mode.String()
}

// trial is one repetition's raw numbers.
type trial struct {
	total, gc time.Duration

	collections   uint64
	owneesChecked uint64
	violations    int
}

// runTrial builds a fresh runtime, warms the subject up, and times one
// measurement window. The host garbage collector runs first so that debt
// from the previous trial's arena is not charged to this one — without
// this, whichever configuration runs first in an interleaved round pays
// for its predecessor.
func runTrial(s Subject, rc RunConfig) trial {
	runtime.GC()
	cfg := core.Config{
		HeapWords:    s.HeapWords,
		Mode:         s.Mode,
		Collector:    s.Collector,
		SweepWorkers: rc.SweepWorkers,
		LazySweep:    rc.LazySweep,
		AllocBuffers: rc.AllocBufWords,
	}
	if rc.EventSink != nil {
		cfg.Telemetry = &telemetry.Config{Sink: rc.EventSink}
	}
	rt := core.New(cfg)
	iterate := s.Build(rt)
	for i := 0; i < rc.Warmup; i++ {
		iterate()
	}
	gc0 := rt.Stats().GC.GCTime
	start := time.Now()
	for i := 0; i < rc.Measure; i++ {
		iterate()
	}
	total := time.Since(start)
	st := rt.Stats()

	out := trial{
		total:       total,
		gc:          st.GC.GCTime - gc0,
		collections: st.GC.Collections,
		violations:  len(rt.Violations()),
	}
	if st.GC.FullCollections > 0 {
		out.owneesChecked = st.GC.Trace.OwneesChecked / st.GC.FullCollections
	}
	return out
}

// Measurement is the aggregate of all trials of one subject under one
// configuration.
type Measurement struct {
	Name   string
	Config string // "Base", "Infrastructure", "WithAssertions"

	Total   Sample // seconds per trial
	GC      Sample
	Mutator Sample

	Collections   uint64 // last trial
	OwneesChecked uint64 // per full GC, last trial (Figure 4/5 commentary)
	Violations    int
}

// summarize folds raw trials into a Measurement.
func summarize(s Subject, trials []trial) Measurement {
	m := Measurement{Name: s.Name, Config: s.ConfigName()}
	var totals, gcs, muts []time.Duration
	for _, t := range trials {
		totals = append(totals, t.total)
		gcs = append(gcs, t.gc)
		muts = append(muts, t.total-t.gc)
	}
	if n := len(trials); n > 0 {
		last := trials[n-1]
		m.Collections = last.collections
		m.OwneesChecked = last.owneesChecked
		m.Violations = last.violations
	}
	m.Total = SummarizeDurations(totals)
	m.GC = SummarizeDurations(gcs)
	m.Mutator = SummarizeDurations(muts)
	return m
}

// Measure runs all trials of a single subject. One untimed priming trial
// runs first: the first windows of a fresh process are dominated by CPU
// frequency ramp-up and code-path warmup, which would otherwise bias
// whichever configuration runs first.
func Measure(s Subject, rc RunConfig) Measurement {
	runTrial(s, rc)
	trials := make([]trial, rc.Trials)
	for i := range trials {
		trials[i] = runTrial(s, rc)
	}
	return summarize(s, trials)
}

// MeasureInterleaved measures several configurations of the same benchmark
// round-robin — trial k of every subject runs before trial k+1 of any —
// so slow drift in machine state (frequency scaling, thermal throttling,
// background load) spreads evenly across configurations instead of biasing
// whichever was measured last.
func MeasureInterleaved(subjects []Subject, rc RunConfig) []Measurement {
	raw := make([][]trial, len(subjects))
	for _, s := range subjects {
		runTrial(s, rc) // untimed priming, see Measure
	}
	for k := 0; k < rc.Trials; k++ {
		for i, s := range subjects {
			raw[i] = append(raw[i], runTrial(s, rc))
		}
	}
	out := make([]Measurement, len(subjects))
	for i, s := range subjects {
		out[i] = summarize(s, raw[i])
	}
	return out
}
