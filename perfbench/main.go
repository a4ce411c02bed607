// Command perfbench is the repository's benchmark: it builds the GC
// assertion runtime's application workloads from source, drives them
// through their public Go API with seeded inputs, checks their outputs,
// and prints end-to-end metrics (untraced run) or per-layer metrics plus
// the tracing overhead (traced run). BENCHMARK.json at the repository
// root describes the workloads and metrics; run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload db-owned --seed 7 --seconds 50 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it are the
// human-readable report and a JSON detail record (environment, sample
// counts, tail percentiles, SLO rungs of the serving workload, failures by
// class).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	root     string
	workload string
	seed     uint64
	seconds  int
	trace    bool
	sloMs    float64
}

func parseOptions(args []string, stderr io.Writer) (options, *workload, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.root, "root", ".", "repository root (the checkout being measured)")
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated op sequences")
	fs.IntVar(&o.seconds, "seconds", 50, "measured seconds, split evenly between the passes of a traced run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	fs.Float64Var(&o.sloMs, "slo-tail-ms", 50, "latency limit of the serving workload's SLO ladder, in milliseconds")
	if err := fs.Parse(args); err != nil {
		return o, nil, err
	}
	if fs.NArg() != 0 {
		return o, nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		return o, nil, fmt.Errorf("unknown -workload %q (known: %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 2 {
		return o, nil, fmt.Errorf("-seconds %d: need at least 2", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, nil, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if o.sloMs <= 0 {
		return o, nil, fmt.Errorf("-slo-tail-ms %v: must be positive", o.sloMs)
	}
	o.trace = trace == 1
	return o, w, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads() {
		names = append(names, w.name)
	}
	return names
}

// result is the final line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, w, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// A wedged program must not wedge the benchmark: past the watchdog
	// the run fails without a result.
	passes := 1
	if o.trace {
		passes = 2
	}
	watchdog := max(170*time.Second, time.Duration(o.seconds+60)*time.Second)
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "perfbench: %s did not finish within %v\n", w.name, watchdog)
		os.Exit(1)
	})
	defer timer.Stop()

	env := environment(o.root, o.seed)
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%v slo-tail=%vms\n", w.name, o.seed, o.seconds, o.trace, o.sloMs)
	fmt.Fprintf(stdout, "environment: %s\n", env)

	// The measured time is split evenly between the passes, so a traced
	// run takes as long as an untraced one.
	length := time.Duration(o.seconds) * time.Second / time.Duration(passes)
	untraced, err := measure(w, o, length, false)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	done := []*pass{untraced}
	if o.trace {
		// Hand the untraced pass's memory back first, so the peak RSS
		// the traced pass reaches is its own.
		runtime.GC()
		debug.FreeOSMemory()
		traced, err := measure(w, o, length, true)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		done = append(done, traced)
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	valid := true
	for _, p := range done {
		fmt.Fprint(stdout, p.report())
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, msg := range p.problems {
			res.Correct = false
			fmt.Fprintln(stdout, "CHECK FAILED:", msg)
		}
		for _, msg := range p.invalid {
			valid = false
			fmt.Fprintf(stderr, "perfbench: invalid measurement: %s: %s\n", p.name, msg)
		}
	}
	if !valid {
		return 1
	}
	if o.trace {
		traced := done[1]
		for _, m := range perLayer {
			v := traced.layers[m.name]
			if isOverhead(m.name) {
				base := strings.TrimPrefix(m.name, overheadPrefix)
				v = traced.e2e[base] - untraced.e2e[base]
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{untraced.e2e[m.name], m.unit}
		}
	}
	detail, err := json.Marshal(map[string]any{"environment": env, "passes": done})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "detail: %s\n", detail)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// pass is one full measurement of a workload: set-up repetitions, the main
// phase, the SLO ladder (serving only) and the output checks, traced or
// not.
type pass struct {
	Traced        bool               `json:"traced"`
	SetupS        []float64          `json:"setup_s"`
	Samples       map[string]int     `json:"samples"`
	Tails         map[string]float64 `json:"tail_percentiles"`
	Rungs         []rungReport       `json:"slo_rungs"`
	ByClass       map[string]int     `json:"failures_by_class,omitempty"`
	Dropped       int                `json:"dropped"`
	Violations    int                `json:"violations"`
	WindowTailsMs []float64          `json:"window_tails_ms"`

	e2e               map[string]float64
	layers            map[string]float64
	problems          []string
	invalid           []string // measurement too small for a metric's definition
	attempted, failed int
	name              string
}

type rungReport struct {
	Rate     float64 `json:"rate"`
	Achieved float64 `json:"achieved"`
	TailMs   float64 `json:"tail_ms"`
	Pass     bool    `json:"pass"`
}

// Run shape. Set-up is repeated at least setupMinReps times and until
// setupMinTime went into it (at most setupMaxReps); the untimed warm-up
// precedes the main phase; each SLO rung lasts at least minRung; request
// tails are read per tailWindow.
const (
	setupMinReps = 5
	setupMaxReps = 501
	setupMinTime = time.Second
	warmup       = 500 * time.Millisecond
	minRung      = 500 * time.Millisecond
	tailWindow   = time.Second
)

// measure runs one pass of the given length: repeated set-up, warm-up,
// the main phase, and the output checks. An open-loop (serving) workload
// spends half the pass in the main phase and half on the SLO staircase; a
// batch workload spends all of it in the main phase.
func measure(w *workload, o options, length time.Duration, traced bool) (*pass, error) {
	p := &pass{Traced: traced, name: w.name, Samples: map[string]int{}, Tails: map[string]float64{},
		e2e: map[string]float64{}}
	inst, err := setUp(w, o.seed, traced, p)
	if err != nil {
		return nil, err
	}
	callers := w.callers
	if callers == 0 {
		callers = runtime.NumCPU()
	}
	mainLen := length
	if w.nominal != 0 {
		mainLen = length / 2
	}
	mainPhase := func(window time.Duration) *phase {
		if w.nominal == 0 {
			return closedLoop(inst.target, window, tailWindow)
		}
		return openLoop(inst.target, w.nominal, window, mainLen, tailWindow, callers, 0, -1)
	}
	// life counts every call the instance served, warm-up included, for
	// the output checks; measured counts the reported phases only.
	var life, measured tally
	life.merge(mainPhase(warmup).tally)

	before := takeSnapshot(inst.rt, traced)
	main := mainPhase(mainLen)
	after := takeSnapshot(inst.rt, traced)
	life.merge(main.tally)
	measured.merge(main.tally)

	var slo float64
	var rungs []rung
	if w.nominal != 0 {
		// The SLO staircase starts at sloStart times the main phase's
		// throughput. Each rung runs at least minRung, and long enough at
		// its rate for the SLO percentile to have minBeyond requests
		// beyond it.
		limit := time.Duration(o.sloMs * float64(time.Millisecond))
		ref := float64(main.attempted-main.failed) / main.elapsed.Seconds()
		need := float64(minBeyond) / (1 - w.sloQ) * 1.05
		slo, rungs = sloStaircase(ladderIndex(ref*w.sloStart), length-mainLen, w.sloQ, limit, func(rate float64) *phase {
			window := max(minRung, time.Duration(need/rate*float64(time.Second)))
			ph := openLoop(inst.target, rate, window, limit, 0, callers, limit, beyond(int(rate*window.Seconds()), w.sloQ))
			life.merge(ph.tally)
			measured.merge(ph.tally)
			p.Dropped += ph.dropped
			return ph
		})
	}
	end := takeSnapshot(inst.rt, false)

	p.attempted, p.failed, p.ByClass = measured.attempted, measured.failed, measured.byClass
	p.problems = inst.check(life.attempted, life.failed)
	p.Violations, _ = inst.viol.result()
	if err := inst.close(); err != nil {
		p.problems = append(p.problems, w.name+": close: "+err.Error())
	}

	p.endToEnd(w, main, end.pausesSince(before), slo, rungs)
	if traced {
		p.layers = layerMetrics(w, main, before, after)
	}
	return p, nil
}

// setUp builds the workload repeatedly, recording each build's time, and
// returns the last build for measuring.
func setUp(w *workload, seed uint64, traced bool, p *pass) (*instance, error) {
	var spent time.Duration
	for rep := 1; ; rep++ {
		// Every build starts from memory handed back to the OS, as a
		// fresh process would, rather than from whatever the last
		// build left mapped.
		debug.FreeOSMemory()
		t0 := time.Now()
		inst := w.build(seed, traced)
		d := time.Since(t0)
		spent += d
		p.SetupS = append(p.SetupS, d.Seconds())
		if rep >= setupMaxReps || (rep >= setupMinReps && spent >= setupMinTime) {
			p.e2e["setup_s"] = median(append([]float64(nil), p.SetupS...))
			return inst, nil
		}
		if err := inst.close(); err != nil {
			return nil, fmt.Errorf("%s set-up: close: %w", w.name, err)
		}
	}
}

// endToEnd derives the end-to-end metrics of a pass, recording as invalid
// any tail whose sample count the tail rule does not allow.
func (p *pass) endToEnd(w *workload, main *phase, pauses []time.Duration, slo float64, rungs []rung) {
	p.e2e["ops_per_s"] = float64(main.attempted-main.failed) / main.elapsed.Seconds()

	// The request tail is read per one-second window and the median
	// across windows reported, so a stall of the host moves it by at most
	// one window's worth.
	p.Samples["requests"] = main.lat.n
	p.Tails["req_tail_ms"] = w.reqTail
	tail, windows := main.windowTail(w.reqTail)
	p.Samples["request_windows"] = windows
	for _, h := range main.windows {
		p.WindowTailsMs = append(p.WindowTailsMs, h.quantile(w.reqTail)/1e6)
	}
	if windows == 0 || windows < len(main.windows)-1 {
		p.invalid = append(p.invalid, fmt.Sprintf("only %d of %d one-second windows hold enough requests for a p%v tail",
			windows, len(main.windows), 100*w.reqTail))
	}
	p.e2e["req_p50_ms"] = main.lat.quantile(0.5) / 1e6
	p.e2e["req_tail_ms"] = tail / 1e6

	// GC pauses are taken over the whole measured time, the serving
	// workload's SLO rungs included: collections are driven by
	// allocation, not by the arrival pattern.
	p.Samples["gc_pauses"] = len(pauses)
	p.Tails["gc_pause_tail_us"] = w.pauseTail
	if beyond(len(pauses), w.pauseTail) < minBeyond {
		p.invalid = append(p.invalid, fmt.Sprintf("%d GC pauses, too few for a p%v tail", len(pauses), 100*w.pauseTail))
	}
	p.e2e["gc_pause_p50_us"] = float64(quantile(pauses, 0.5)) / 1e3
	p.e2e["gc_pause_tail_us"] = float64(quantile(pauses, w.pauseTail)) / 1e3

	p.e2e["peak_rss_mb"] = peakRSSMB()

	// slo_rps belongs to the open-loop workload, the only one with a
	// staircase.
	if w.nominal == 0 {
		return
	}
	p.Tails["slo_rung"] = w.sloQ
	for _, r := range rungs {
		p.Rungs = append(p.Rungs, rungReport{r.rate, r.achieved, r.tail / 1e6, r.pass})
		if n := r.phase.attempted + r.phase.dropped; beyond(n, w.sloQ) < minBeyond {
			p.invalid = append(p.invalid, fmt.Sprintf("SLO rung at %.0f/s has %d requests, too few for its p%v", r.rate, n, 100*w.sloQ))
		}
	}
	p.e2e["slo_rps"] = slo
}

// report renders the pass for people.
func (p *pass) report() string {
	var b strings.Builder
	kind := "untraced"
	if p.Traced {
		kind = "traced"
	}
	fmt.Fprintf(&b, "-- %s %s: attempted %d, failed %d, dropped %d, violations %d, set-up reps %d\n",
		p.name, kind, p.attempted, p.failed, p.Dropped, p.Violations, len(p.SetupS))
	names := make([]string, 0, len(p.e2e))
	for n := range p.e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "   %-18s %14.4f\n", n, p.e2e[n])
	}
	for _, r := range p.Rungs {
		fmt.Fprintf(&b, "   slo rung %9.0f/s achieved %9.1f/s tail %8.3f ms pass=%v\n", r.Rate, r.Achieved, r.TailMs, r.Pass)
	}
	classes := make([]string, 0, len(p.ByClass))
	for c := range p.ByClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(&b, "   failures %6d  %s\n", p.ByClass[c], c)
	}
	if p.layers != nil {
		lnames := make([]string, 0, len(p.layers))
		for n := range p.layers {
			lnames = append(lnames, n)
		}
		sort.Strings(lnames)
		for _, n := range lnames {
			fmt.Fprintf(&b, "   %-34s %14.4f\n", n, p.layers[n])
		}
	}
	return b.String()
}
