package main

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

func defaults() options {
	return options{
		fig:          "all",
		trials:       harness.DefaultRunConfig.Trials,
		measure:      harness.DefaultRunConfig.Measure,
		warmup:       harness.DefaultRunConfig.Warmup,
		sweepWorkers: 1,
		zones:        4,
	}
}

// TestFigUsageMatchesValidate pins the -fig usage string to validate's
// accepted set: both derive from figNames, and this test fails if either
// ever hardcodes its own list again (the usage string once advertised only
// "2, 3, 4, 5, all, trace, or pause" while validate also took sweep and
// alloc).
func TestFigUsageMatchesValidate(t *testing.T) {
	usage := figUsage()
	for _, name := range figNames {
		if !strings.Contains(usage, name) {
			t.Errorf("usage string %q does not mention accepted figure %q", usage, name)
		}
		o := defaults()
		o.fig = name
		if err := validate(o); err != nil {
			t.Errorf("figure %q is advertised in the usage string but rejected: %v", name, err)
		}
	}
	// The error message for an unknown figure lists the same set.
	o := defaults()
	o.fig = "nope"
	err := validate(o)
	if err == nil {
		t.Fatal("validate accepted an unknown figure")
	}
	for _, name := range figNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-figure error %q does not list accepted figure %q", err, name)
		}
	}
}

func TestValidateAccepts(t *testing.T) {
	cases := []func(*options){
		func(o *options) {},
		func(o *options) { o.fig = "2" },
		func(o *options) { o.fig = "pause" },
		func(o *options) { o.fig = "pause"; o.incremental = 5000 },
		func(o *options) { o.fig = "pause"; o.concurrent = true },
		func(o *options) { o.warmup = 0 },
		func(o *options) { o.fig = "sweep" },
		func(o *options) { o.fig = "2"; o.sweepWorkers = 4 },
		func(o *options) { o.fig = "3"; o.lazySweep = true },
		func(o *options) { o.fig = "alloc" },
		func(o *options) { o.fig = "2"; o.allocBuf = 1024 },
		func(o *options) { o.fig = "all"; o.allocBuf = 256; o.lazySweep = true },
		func(o *options) { o.events = "events.ndjson" },
		func(o *options) { o.fig = "zones" },
		func(o *options) { o.fig = "zones"; o.zones = 2 },
		func(o *options) { o.fig = "zones"; o.zones = 8 },
		func(o *options) { o.fig = "zones"; o.zoneGCW = 1 },
		func(o *options) { o.fig = "zones"; o.zoneGCW = 4 },
		func(o *options) { o.fig = "zones"; o.zones = 8; o.zoneGCW = 8 },
		func(o *options) { o.fig = "zones"; o.zones = 2; o.zoneGCW = 2 },
	}
	for i, mut := range cases {
		o := defaults()
		mut(&o)
		if err := validate(o); err != nil {
			t.Errorf("case %d: validate(%+v) = %v, want nil", i, o, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		mut  func(*options)
		want string
	}{
		{func(o *options) { o.fig = "6" }, "unknown figure"},
		{func(o *options) { o.trials = 0 }, "-trials"},
		{func(o *options) { o.measure = 0 }, "-measure"},
		{func(o *options) { o.warmup = -1 }, "-warmup"},
		{func(o *options) { o.incremental = -1 }, "cannot be negative"},
		// The published figures are stop-the-world; a budget on them would
		// silently measure a different collector than the paper's.
		{func(o *options) { o.fig = "all"; o.incremental = 100 }, "stop-the-world as published"},
		{func(o *options) { o.fig = "3"; o.incremental = 100 }, "stop-the-world as published"},
		// The pacer report is -fig pause's concurrent arm; on the paper
		// figures the flag would silently measure nothing.
		{func(o *options) { o.fig = "all"; o.concurrent = true }, "applies only to -fig pause"},
		// The pacer schedules its own slices; an explicit budget would
		// fight it.
		{func(o *options) { o.fig = "pause"; o.concurrent = true; o.incremental = 100 }, "cannot be combined"},
		{func(o *options) { o.sweepWorkers = -1 }, "-sweepworkers"},
		// Lazy sweeping reclaims strictly in address order; there is nothing
		// for sweep workers to fan out over.
		{func(o *options) { o.lazySweep = true; o.sweepWorkers = 4 }, "cannot be combined"},
		// The side-by-side reports pick their own modes; a stray mode flag
		// would otherwise be silently ignored.
		{func(o *options) { o.fig = "sweep"; o.lazySweep = true }, "configures its own"},
		{func(o *options) { o.fig = "pause"; o.sweepWorkers = 2 }, "configures its own"},
		{func(o *options) { o.allocBuf = -1 }, "-allocbuf"},
		// Below vmheap.MinBufferWords would panic in core.New mid-run.
		{func(o *options) { o.fig = "2"; o.allocBuf = 32 }, "below the minimum"},
		// -fig alloc measures direct against its own buffer-size ladder; a
		// stray -allocbuf would be silently ignored.
		{func(o *options) { o.fig = "alloc"; o.allocBuf = 512 }, "configures its own"},
		{func(o *options) { o.fig = "sweep"; o.allocBuf = 512 }, "configures its own"},
		// The side-by-side reports build their own runtimes; an -events file
		// would be created and then silently stay empty.
		{func(o *options) { o.fig = "pause"; o.events = "ev.ndjson" }, "configures its own"},
		{func(o *options) { o.fig = "sweep"; o.events = "ev.ndjson" }, "configures its own"},
		{func(o *options) { o.fig = "alloc"; o.events = "ev.ndjson" }, "configures its own"},
		// A zone count of 0, 1, or below would panic in vmheap.NewZoned (or
		// silently mean "no sharding"); reject it at the flag boundary.
		{func(o *options) { o.fig = "zones"; o.zones = 0 }, "at least two zones"},
		{func(o *options) { o.fig = "zones"; o.zones = 1 }, "at least two zones"},
		{func(o *options) { o.fig = "zones"; o.zones = -3 }, "at least two zones"},
		// More zones than the report heap can give the minimum extent would
		// panic when the sharded runtime is built.
		{func(o *options) { o.fig = "zones"; o.zones = 1 << 20 }, "max"},
		// The zone count shapes only the zone report; on any other figure a
		// non-default value would be silently ignored.
		{func(o *options) { o.fig = "2"; o.zones = 8 }, "applies only to -fig zones"},
		{func(o *options) { o.fig = "pause"; o.zones = 2 }, "applies only to -fig zones"},
		// The zone report builds its own runtimes and modes, like the other
		// side-by-side reports.
		{func(o *options) { o.fig = "zones"; o.lazySweep = true }, "configures its own"},
		{func(o *options) { o.fig = "zones"; o.sweepWorkers = 2 }, "configures its own"},
		{func(o *options) { o.fig = "zones"; o.allocBuf = 512 }, "configures its own"},
		{func(o *options) { o.fig = "zones"; o.events = "ev.ndjson" }, "configures its own"},
		{func(o *options) { o.fig = "zones"; o.zoneGCW = -1 }, "cannot be negative"},
		// Concurrent rotation is the zone report's parallel arm; on any
		// other figure the worker count would be silently ignored.
		{func(o *options) { o.fig = "all"; o.zoneGCW = 2 }, "needs -zones"},
		{func(o *options) { o.fig = "pause"; o.zoneGCW = 4 }, "needs -zones"},
		// More workers than zones cannot all be in flight; reject rather
		// than silently capping inside GCZonesConcurrent.
		{func(o *options) { o.fig = "zones"; o.zoneGCW = 8 }, "exceeds -zones"},
		{func(o *options) { o.fig = "zones"; o.zones = 2; o.zoneGCW = 3 }, "exceeds -zones"},
	}
	for i, c := range cases {
		o := defaults()
		c.mut(&o)
		err := validate(o)
		if err == nil {
			t.Errorf("case %d: validate(%+v) = nil, want error containing %q", i, o, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: validate(%+v) = %q, want it to contain %q", i, o, err, c.want)
		}
	}
}
