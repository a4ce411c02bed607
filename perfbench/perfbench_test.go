package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func firstOps(seed uint64, mix opMix, n int) []op {
	s := newStream(seed, mix)
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestSeedDeterminesOps(t *testing.T) {
	for _, w := range allWorkloads() {
		a := firstOps(7, w.mix(), 2000)
		b := firstOps(7, w.mix(), 2000)
		c := firstOps(8, w.mix(), 2000)
		if !equalOps(a, b) {
			t.Errorf("%s: the same seed gave two op sequences", w.name)
		}
		if equalOps(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", w.name)
		}
	}
}

func equalOps(a, b []op) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMixRatioIsExactPerBlock(t *testing.T) {
	for _, w := range allWorkloads() {
		mix := w.mix()
		block := 0
		for _, x := range mix.weights {
			block += x
		}
		ops := firstOps(3, mix, 5*block)
		for b := 0; b < 5; b++ {
			counts := make([]int, len(mix.weights))
			for _, o := range ops[b*block : (b+1)*block] {
				counts[o.kind]++
			}
			for kind, want := range mix.weights {
				if counts[kind] != want {
					t.Errorf("%s block %d: %d %s ops, want %d", w.name, b, counts[kind], mix.names[kind], want)
				}
			}
		}
	}
}

func TestGrowingKeysFollowAdds(t *testing.T) {
	const add, find = 0, 1
	keys := growingKeys(10, add, find)
	r := newRNG(1)
	for i := 0; i < 1000; i++ {
		if k := keys(r, find); k < 0 || k > 10 {
			t.Fatalf("find key %d outside [0, 10] before any add", k)
		}
	}
	keys(r, add)
	seen11 := false
	for i := 0; i < 1000; i++ {
		k := keys(r, find)
		if k < 0 || k > 11 {
			t.Fatalf("find key %d outside [0, 11] after one add", k)
		}
		seen11 = seen11 || k == 11
	}
	if !seen11 {
		t.Error("the added key is never looked up")
	}
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		beyond int
	}{
		{1000, 0.99, 10},
		{999, 0.99, 9},
		{100, 0.9, 10},
		{2000, 0.995, 10},
		{64, 0.75, 16},
		{1, 0.5, 0},
		{0, 0.5, 0},
	}
	for _, c := range cases {
		if got := beyond(c.n, c.q); got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
	}
	// Each workload's fixed tails keep minBeyond samples beyond them at
	// the lowest sample counts a traced pass (half of a 50-second run)
	// gives on a 2-CPU host: requests per one-second window and GC pauses
	// per pass. SLO rungs are sized by the benchmark to suffice.
	lows := map[string][2]int{"jbb-leak": {50000, 1000}, "db-owned": {1000, 60}, "serve-concurrent": {2000, 200}}
	for _, w := range allWorkloads() {
		low := lows[w.name]
		if beyond(low[0], w.reqTail) < minBeyond || beyond(low[1], w.pauseTail) < minBeyond {
			t.Errorf("%s: p%v of %d requests or p%v of %d pauses leaves fewer than %d beyond",
				w.name, 100*w.reqTail, low[0], 100*w.pauseTail, low[1], minBeyond)
		}
	}
}

func TestHistQuantilesTrackExactOnes(t *testing.T) {
	var h hist
	var exact []time.Duration
	r := newRNG(5)
	for i := 0; i < 20000; i++ {
		// A long-tailed mix: mostly microseconds, some milliseconds.
		d := time.Duration(200+r.intn(5000)) * time.Nanosecond
		if r.intn(50) == 0 {
			d = time.Duration(1+r.intn(20)) * time.Millisecond
		}
		h.add(d)
		exact = append(exact, d)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := float64(quantile(exact, q))
		got := h.quantile(q)
		if got < want*0.99 || got > want*1.01 {
			t.Errorf("p%v: hist %v, exact %v", 100*q, got, want)
		}
	}
	limit := 5 * time.Millisecond
	above := 0
	for _, d := range exact {
		if d > limit {
			above++
		}
	}
	if got := h.countAbove(limit); got < above*99/100 || got > above*101/100+1 {
		t.Errorf("countAbove(%v) = %d, exact %d", limit, got, above)
	}
}

func TestMetricsValidAndDeclared(t *testing.T) {
	if err := validateMetrics(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.name)
		}
	}
	checkDeclared(t, "end_to_end", b.EndToEnd, endToEnd, true)
	checkDeclared(t, "per_layer", b.PerLayer, perLayer, false)
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
	if len(b.Command) < 2 || b.Command[1] != "perfbench/run.sh" {
		t.Errorf("command %v does not run perfbench/run.sh", b.Command)
	}
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func checkDeclared(t *testing.T, section string, got []jsonMetric, want []metric, bounded bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", section, len(got), len(want))
	}
	for i, m := range want {
		g := got[i]
		if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
			t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", section, i, g, m)
		}
		switch {
		case bounded && (g.Bound == nil || *g.Bound != m.bound):
			t.Errorf("%s %s: bound %v, want %v", section, m.name, g.Bound, m.bound)
		case !bounded && g.Bound != nil:
			t.Errorf("%s %s: per-layer metrics have no bound", section, m.name)
		}
	}
}

func TestFailuresCountedOnceByClass(t *testing.T) {
	var tl tally
	calls := 0
	boom := errors.New("object 1234 is not allocated")
	for i := 0; i < 6; i++ {
		_ = tl.call("remove", func() error {
			calls++
			switch i % 3 {
			case 1:
				return boom
			case 2:
				panic("out of memory at word 99")
			}
			return nil
		})
	}
	if calls != 6 {
		t.Errorf("%d calls for 6 operations: a failed operation was retried", calls)
	}
	if tl.attempted != 6 || tl.failed != 4 {
		t.Errorf("attempted %d failed %d, want 6 and 4", tl.attempted, tl.failed)
	}
	want := map[string]int{
		"remove: object #### is not allocated":    2,
		"remove: panic: out of memory at word ##": 2,
	}
	if len(tl.byClass) != len(want) {
		t.Errorf("classes %v, want %v", tl.byClass, want)
	}
	for c, n := range want {
		if tl.byClass[c] != n {
			t.Errorf("class %q: %d, want %d (all: %v)", c, tl.byClass[c], n, tl.byClass)
		}
	}
}

// failingTarget fails every third call.
func failingTarget() (target, *int) {
	calls := 0
	s := newStream(1, opMix{names: []string{"a", "b"}, weights: []int{1, 1}})
	return target{
		names: s.mix.names,
		next:  s.next,
		do: func(op) error {
			calls++
			if calls%3 == 0 {
				return errors.New("injected")
			}
			return nil
		},
	}, &calls
}

func TestGeneratorsCountInjectedFailures(t *testing.T) {
	tg, calls := failingTarget()
	p := closedLoop(tg, 20*time.Millisecond, 0)
	if p.attempted != *calls || p.failed != *calls/3 {
		t.Errorf("closed loop: attempted %d failed %d after %d calls", p.attempted, p.failed, *calls)
	}
	if p.lat.n != p.attempted-p.failed {
		t.Errorf("closed loop: %d latencies for %d successes", p.lat.n, p.attempted-p.failed)
	}

	tg, calls = failingTarget()
	p = openLoop(tg, 3000, 100*time.Millisecond, time.Second, 0, 1, time.Second, -1)
	if p.attempted != 300 || p.failed != 100 || *calls != 300 || p.dropped != 0 {
		t.Errorf("open loop: attempted %d failed %d dropped %d calls %d, want 300, 100, 0, 300",
			p.attempted, p.failed, p.dropped, *calls)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// One caller, a call that stalls once for 30ms: every request due
	// during the stall is late, and its latency counts the wait.
	calls := 0
	s := newStream(1, opMix{names: []string{"a"}, weights: []int{1}})
	tg := target{names: s.mix.names, next: s.next, do: func(op) error {
		calls++
		if calls == 10 {
			time.Sleep(30 * time.Millisecond)
		}
		return nil
	}}
	p := openLoop(tg, 1000, 100*time.Millisecond, time.Second, 0, 1, 0, -1)
	if got := p.lat.countAbove(10 * time.Millisecond); got < 15 {
		t.Errorf("%d requests took over 10ms from due; the 30ms stall should delay about 20", got)
	}
	if p.late.quantile(0.99) < float64(10*time.Millisecond) {
		t.Errorf("generator lateness p99 %v ns does not show the stall", p.late.quantile(0.99))
	}
}

func TestStaircaseFindsThreshold(t *testing.T) {
	// A program that meets the SLO below 5000 requests/s.
	const threshold = 5000
	measure := func(rate float64) *phase {
		p := newPhase(1, 0)
		p.attempted = int(rate / 10)
		p.elapsed = 100 * time.Millisecond
		if rate >= threshold {
			p.failed = p.attempted
		}
		return p
	}
	slo, rungs := sloStaircase(ladderIndex(1000), 0, 0.99, time.Millisecond, measure)
	if len(rungs) != 1 || slo == 0 {
		t.Fatalf("a zero budget should still measure one rung: slo %v, %d rungs", slo, len(rungs))
	}
	slo, rungs = sloStaircase(ladderIndex(1000), 700*time.Millisecond, 0.99, time.Millisecond, func(rate float64) *phase {
		time.Sleep(time.Millisecond)
		return measure(rate)
	})
	if slo >= threshold || slo < threshold*0.9 {
		t.Errorf("slo %v after %d rungs, want just under %d", slo, len(rungs), threshold)
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "db-owned", "--trace", "2"},
		{"--workload", "db-owned", "--seconds", "1"},
		{"--workload", "db-owned", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateMetrics checks every declared metric against the benchmark
// contract: well-formed, unique names and units, a known direction, and
// end-to-end bounds in (0, 0.25].
func validateMetrics() error {
	seen := map[string]bool{}
	check := func(m metric, e2e bool) error {
		switch {
		case !nameRE.MatchString(m.name):
			return fmt.Errorf("metric name %q is not valid", m.name)
		case seen[m.name]:
			return fmt.Errorf("metric name %q is used twice", m.name)
		case !unitRE.MatchString(m.unit):
			return fmt.Errorf("metric %s: unit %q is not valid", m.name, m.unit)
		case m.better != "lower" && m.better != "higher":
			return fmt.Errorf("metric %s: better %q", m.name, m.better)
		case e2e && (m.bound <= 0 || m.bound > 0.25):
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		seen[m.name] = true
		return nil
	}
	for _, m := range endToEnd {
		if err := check(m, true); err != nil {
			return err
		}
	}
	for _, m := range perLayer {
		if err := check(m, false); err != nil {
			return err
		}
	}
	return nil
}
