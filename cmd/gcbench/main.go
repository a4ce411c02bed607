// Command gcbench regenerates the paper's performance figures:
//
//	gcbench -fig 2     Base vs Infrastructure total/mutator time (Figure 2)
//	gcbench -fig 3     Base vs Infrastructure GC time (Figure 3)
//	gcbench -fig 4     Base/Infrastructure/WithAssertions total time (Figure 4)
//	gcbench -fig 5     Base/Infrastructure/WithAssertions GC time (Figure 5)
//	gcbench -fig all   every paper figure
//	gcbench -fig pause incremental pause-distribution report (not a paper figure)
//	gcbench -fig sweep sweep-mode pause comparison (not a paper figure)
//	gcbench -fig alloc allocation-throughput comparison (not a paper figure)
//	gcbench -fig zones zone pause-isolation report (not a paper figure)
//
// -incremental N selects the bounded mark budget for -fig pause; the paper
// figures themselves are always stop-the-world, as published.
// -concurrent switches -fig pause to the background-pacer report: the same
// churn workload under the stop-the-world collector and under the
// concurrent pacer at several trigger/slack settings, comparing
// mutator-visible latency tails and throughput.
// -sweepworkers N and -lazysweep select the sweep mode for the paper
// figures (the published numbers use the default eager serial sweep); -fig
// sweep instead measures every mode side by side and ignores both flags.
// -allocbuf N runs the paper figures with per-thread bump allocation
// buffers of N words (the published numbers use the default direct
// free-list allocation); -fig alloc instead measures the direct allocator
// against several buffer sizes side by side and ignores the flag.
// -events FILE enables telemetry on every measured runtime and streams its
// NDJSON event log there (cmd/gcmon summarizes it); the published numbers
// run with telemetry disabled.
// -zones N shards the heap for -fig zones' sharded variants (the report
// always includes the unzoned whole-heap baseline and a two-zone row).
// -zonegcworkers W switches -fig zones to its parallel-rotation arm: the
// same churn measured under serialized GCZones rotations and under
// GCZonesConcurrent with up to W zones collected simultaneously,
// comparing aggregate GC throughput (marked words/sec) at flat mutator
// throughput (make parzonebench records it in results/parallel_zones.txt).
//
// Methodology follows the paper: fixed heaps at roughly twice each
// benchmark's minimum live size, warmup iterations discarded, repeated
// trials with 90% confidence intervals. Absolute times are host-dependent;
// the normalized columns are the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/harness"
	"repro/internal/vmheap"
)

// figNames is the single source of truth for the accepted -fig values: the
// usage string, validate's accepted set, and its error message all derive
// from it (TestFigUsageMatchesValidate keeps them from drifting).
var figNames = []string{"2", "3", "4", "5", "all", "pause", "sweep", "alloc", "zones"}

// figList renders figNames as an English list ("2, 3, ..., or alloc").
func figList() string {
	last := len(figNames) - 1
	return strings.Join(figNames[:last], ", ") + ", or " + figNames[last]
}

// figUsage is the -fig flag's usage string.
func figUsage() string { return "figure to regenerate: " + figList() }

// options collects the flag values so validation is testable apart from
// flag parsing and execution.
type options struct {
	fig          string
	trials       int
	measure      int
	warmup       int
	incremental  int
	concurrent   bool
	sweepWorkers int
	lazySweep    bool
	allocBuf     int
	events       string
	zones        int
	zoneGCW      int
}

// validate rejects option combinations that would otherwise fail deep
// inside a measurement run (or, worse, silently measure the wrong thing).
func validate(o options) error {
	if !slices.Contains(figNames, o.fig) {
		return fmt.Errorf("unknown figure %q (want %s)", o.fig, figList())
	}
	if o.trials < 1 {
		return fmt.Errorf("-trials %d: need at least one trial", o.trials)
	}
	if o.measure < 1 {
		return fmt.Errorf("-measure %d: need at least one timed iteration", o.measure)
	}
	if o.warmup < 0 {
		return fmt.Errorf("-warmup %d: cannot be negative", o.warmup)
	}
	if o.incremental < 0 {
		return fmt.Errorf("-incremental %d: mark budget cannot be negative", o.incremental)
	}
	if o.incremental > 0 && o.fig != "pause" {
		return fmt.Errorf("-incremental %d with -fig %s: the paper figures are stop-the-world as published; incremental budgets apply only to -fig pause", o.incremental, o.fig)
	}
	if o.concurrent && o.fig != "pause" {
		return fmt.Errorf("-concurrent with -fig %s: the background-pacer report applies only to -fig pause", o.fig)
	}
	if o.concurrent && o.incremental > 0 {
		return fmt.Errorf("-concurrent with -incremental %d: the pacer budgets its own mark slices against the allocation rate; the two modes cannot be combined", o.incremental)
	}
	if o.sweepWorkers < 0 {
		return fmt.Errorf("-sweepworkers %d: cannot be negative", o.sweepWorkers)
	}
	if o.lazySweep && o.sweepWorkers >= 2 {
		return fmt.Errorf("-lazysweep with -sweepworkers %d: deferred reclamation is strictly in address order; the two sweep modes cannot be combined", o.sweepWorkers)
	}
	if (o.lazySweep || o.sweepWorkers >= 2) && (o.fig == "sweep" || o.fig == "pause" || o.fig == "alloc" || o.fig == "zones") {
		return fmt.Errorf("-sweepworkers/-lazysweep select a mode for the paper figures; -fig %s configures its own collector modes", o.fig)
	}
	if o.allocBuf < 0 {
		return fmt.Errorf("-allocbuf %d: cannot be negative", o.allocBuf)
	}
	if o.allocBuf > 0 && o.allocBuf < vmheap.MinBufferWords {
		return fmt.Errorf("-allocbuf %d: below the minimum buffer of %d words (use 0 for direct allocation)", o.allocBuf, vmheap.MinBufferWords)
	}
	if o.allocBuf > 0 && (o.fig == "sweep" || o.fig == "pause" || o.fig == "alloc" || o.fig == "zones") {
		return fmt.Errorf("-allocbuf selects a mode for the paper figures; -fig %s configures its own allocation modes", o.fig)
	}
	if o.events != "" && (o.fig == "sweep" || o.fig == "pause" || o.fig == "alloc" || o.fig == "zones") {
		return fmt.Errorf("-events streams telemetry from the paper-figure runs; -fig %s configures its own runtimes", o.fig)
	}
	if o.zones < 2 {
		return fmt.Errorf("-zones %d: sharding needs at least two zones", o.zones)
	}
	if maxZones := harness.DefaultZoneReport.HeapWords / vmheap.MinZoneWords; o.zones > maxZones {
		return fmt.Errorf("-zones %d: the %d-word report heap cannot give each zone the minimum %d words (max %d zones)", o.zones, harness.DefaultZoneReport.HeapWords, vmheap.MinZoneWords, maxZones)
	}
	if o.zones != 4 && o.fig != "zones" {
		return fmt.Errorf("-zones %d with -fig %s: the zone count applies only to -fig zones", o.zones, o.fig)
	}
	if o.zoneGCW < 0 {
		return fmt.Errorf("-zonegcworkers %d: cannot be negative", o.zoneGCW)
	}
	if o.zoneGCW > 0 && o.fig != "zones" {
		return fmt.Errorf("-zonegcworkers %d with -fig %s: concurrent rotation is -fig zones' parallel arm; it needs -zones", o.zoneGCW, o.fig)
	}
	if o.zoneGCW > o.zones {
		return fmt.Errorf("-zonegcworkers %d exceeds -zones %d: cannot collect more zones simultaneously than exist", o.zoneGCW, o.zones)
	}
	return nil
}

func main() {
	fig := flag.String("fig", "all", figUsage())
	trials := flag.Int("trials", harness.DefaultRunConfig.Trials, "trials per configuration")
	measure := flag.Int("measure", harness.DefaultRunConfig.Measure, "timed iterations per trial")
	warmup := flag.Int("warmup", harness.DefaultRunConfig.Warmup, "warmup iterations per trial")
	incremental := flag.Int("incremental", 0, "bounded mark budget for -fig pause (0 = stop-the-world)")
	concurrent := flag.Bool("concurrent", false, "run -fig pause as the background-pacer report (stop-the-world vs concurrent trigger/slack settings)")
	sweepWorkers := flag.Int("sweepworkers", 1, "sweep-phase workers for the paper figures (1 = eager serial, as published)")
	lazySweep := flag.Bool("lazysweep", false, "defer reclamation to allocation time for the paper figures")
	allocBuf := flag.Int("allocbuf", 0, "per-thread allocation buffer words for the paper figures (0 = direct free-list allocation, as published)")
	events := flag.String("events", "", "write telemetry NDJSON events from the measured runtimes of the paper figures to this file")
	zones := flag.Int("zones", 4, "zone count for -fig zones' largest sharded variant")
	zoneGCW := flag.Int("zonegcworkers", 0, "run -fig zones as the parallel-rotation report, collecting up to this many zones simultaneously (0 = pause-isolation report)")
	quiet := flag.Bool("q", false, "suppress progress output")
	csvPath := flag.String("csv", "", "also write raw measurements to this CSV file")
	flag.Parse()

	opts := options{
		fig:          *fig,
		trials:       *trials,
		measure:      *measure,
		warmup:       *warmup,
		incremental:  *incremental,
		concurrent:   *concurrent,
		sweepWorkers: *sweepWorkers,
		lazySweep:    *lazySweep,
		allocBuf:     *allocBuf,
		events:       *events,
		zones:        *zones,
		zoneGCW:      *zoneGCW,
	}
	if err := validate(opts); err != nil {
		fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
		os.Exit(2)
	}

	rc := harness.RunConfig{
		Warmup: *warmup, Measure: *measure, Trials: *trials,
		SweepWorkers: *sweepWorkers, LazySweep: *lazySweep,
		AllocBufWords: *allocBuf,
	}
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		rc.EventSink = f
	}
	progress := func(name string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "measuring %s...\n", name)
		}
	}

	if *fig == "zones" && *zoneGCW > 0 {
		cfg := harness.DefaultParZoneReport
		cfg.Zones = *zones
		cfg.Workers = []int{0}
		for w := 1; w < *zoneGCW; w *= 2 {
			cfg.Workers = append(cfg.Workers, w)
		}
		cfg.Workers = append(cfg.Workers, *zoneGCW)
		rows := harness.RunParZoneReport(cfg, progress)
		fmt.Println(harness.FormatParZoneReport(rows))
		return
	}

	if *fig == "zones" {
		cfg := harness.DefaultZoneReport
		if *zones != 4 {
			cfg.Variants = []harness.ZoneVariant{
				{Name: "unzoned", Zones: 0},
				{Name: "zones-2", Zones: 2},
			}
			if *zones != 2 {
				cfg.Variants = append(cfg.Variants,
					harness.ZoneVariant{Name: fmt.Sprintf("zones-%d", *zones), Zones: *zones})
			}
		}
		rows := harness.RunZoneReport(cfg, progress)
		fmt.Println(harness.FormatZoneReport(rows))
		return
	}

	if *fig == "alloc" {
		rows := harness.RunAllocReport(harness.DefaultAllocReport, progress)
		fmt.Println(harness.FormatAllocReport(harness.DefaultAllocReport, rows))
		return
	}

	if *fig == "sweep" {
		rows := harness.RunSweepReport(harness.DefaultSweepReport, progress)
		fmt.Println(harness.FormatSweepReport(harness.DefaultSweepReport, rows))
		return
	}

	if *fig == "pause" && *concurrent {
		rows := harness.RunConcurrentPacing(harness.DefaultConcurrentPacing, progress)
		fmt.Println(harness.FormatConcurrentPacing(rows))
		return
	}

	if *fig == "pause" {
		cfg := harness.DefaultPauseReport
		if *incremental > 0 {
			// A single explicit budget replaces the default sweep; budget 0
			// stays as the baseline row.
			cfg.Budgets = []int{0, *incremental}
		}
		rows := harness.RunPauseReport(cfg, progress)
		fmt.Println(harness.FormatPauseReport(rows))
		return
	}

	need23 := *fig == "2" || *fig == "3" || *fig == "all"
	need45 := *fig == "4" || *fig == "5" || *fig == "all"

	var allRows []harness.Row
	if need23 {
		rows := harness.RunFig23(rc, progress)
		allRows = append(allRows, rows...)
		if *fig == "2" || *fig == "all" {
			fmt.Println(harness.FormatFig2(rows))
		}
		if *fig == "3" || *fig == "all" {
			fmt.Println(harness.FormatFig3(rows))
		}
	}
	if need45 {
		rows := harness.RunFig45(rc, progress)
		allRows = append(allRows, rows...)
		if *fig == "4" || *fig == "all" {
			fmt.Println(harness.FormatFig4(rows))
		}
		if *fig == "5" || *fig == "all" {
			fmt.Println(harness.FormatFig5(rows))
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := harness.WriteCSV(f, allRows); err != nil {
			fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
}
