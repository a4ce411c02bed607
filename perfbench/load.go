package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"
)

// The load generators. A batch workload is driven closed-loop by one
// caller (its program has one mutator thread); the serving workload is
// driven open-loop, at its nominal rate and then on the SLO ladder.
// Open-loop requests are timed from when they were due, not from when they
// were sent, so a stall charges its delay to every request queued behind
// it.

// tally counts attempted and failed operations, failures by error class.
// A failed operation is never retried.
type tally struct {
	attempted, failed int
	byClass           map[string]int
}

// call runs f as one attempted operation of the named kind. A panic from
// the program (its allocator and assertion errors panic) counts as a
// failure like a returned error.
func (t *tally) call(kind string, f func() error) (err error) {
	t.attempted++
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
		if err != nil {
			t.failed++
			if t.byClass == nil {
				t.byClass = map[string]int{}
			}
			t.byClass[errorClass(kind, err)]++
		}
	}()
	return f()
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for c, n := range o.byClass {
		if t.byClass == nil {
			t.byClass = map[string]int{}
		}
		t.byClass[c] += n
	}
}

// errorClass folds an error into a class: the op kind plus the message
// with its numbers blanked, so failures on different objects group
// together.
func errorClass(kind string, err error) string {
	msg := strings.Map(func(r rune) rune {
		if r >= '0' && r <= '9' {
			return '#'
		}
		return r
	}, err.Error())
	if len(msg) > 96 {
		msg = msg[:96]
	}
	return kind + ": " + msg
}

// kindTime accumulates the time spent in one op kind's calls.
type kindTime struct {
	n  int
	ns float64
}

// phase is what one measured phase produced.
type phase struct {
	tally
	elapsed time.Duration
	lat     hist // per request: completion minus due (closed loop: call time)
	late    hist // open loop: send minus due
	service hist // per call: return minus send
	kinds   []kindTime
	dropped int // open loop: due in the window, never sent (generator too far behind)

	// windows splits lat by when each request was due, window seconds
	// apart, so a tail can be read per window and its median reported.
	window  time.Duration
	windows []*hist
}

func newPhase(kinds int, window time.Duration) *phase {
	return &phase{kinds: make([]kindTime, kinds), window: window}
}

// addLat records one request's latency; at is when it was due, from the
// start of the phase.
func (p *phase) addLat(at, d time.Duration) {
	p.lat.add(d)
	if p.window == 0 {
		return
	}
	i := int(at / p.window)
	for len(p.windows) <= i {
		p.windows = append(p.windows, &hist{})
	}
	p.windows[i].add(d)
}

// windowTail returns the median across windows of each window's
// q-quantile in nanoseconds, over the windows holding at least minBeyond
// requests beyond it, and how many windows those were.
func (p *phase) windowTail(q float64) (float64, int) {
	var tails []float64
	for _, h := range p.windows {
		if beyond(h.n, q) >= minBeyond {
			tails = append(tails, h.quantile(q))
		}
	}
	return median(tails), len(tails)
}

func (p *phase) merge(o *phase) {
	p.tally.merge(o.tally)
	p.lat.merge(&o.lat)
	p.late.merge(&o.late)
	p.service.merge(&o.service)
	for i := range p.kinds {
		p.kinds[i].n += o.kinds[i].n
		p.kinds[i].ns += o.kinds[i].ns
	}
	p.dropped += o.dropped
	for i, h := range o.windows {
		for len(p.windows) <= i {
			p.windows = append(p.windows, &hist{})
		}
		p.windows[i].merge(h)
	}
}

// target is one workload instance as the generators see it: a source of
// seeded ops and the call that executes one.
type target struct {
	names []string
	next  func() op
	do    func(op) error
}

// closedLoop issues ops back to back from one caller for the window,
// splitting latencies into windows of win (0 = none).
func closedLoop(t target, window, win time.Duration) *phase {
	p := newPhase(len(t.names), win)
	start := time.Now()
	deadline := start.Add(window)
	prev := start
	for prev.Before(deadline) {
		o := t.next()
		err := p.call(t.names[o.kind], func() error { return t.do(o) })
		now := time.Now()
		d := now.Sub(prev)
		if err == nil {
			p.addLat(prev.Sub(start), d)
			p.service.add(d)
		}
		p.kinds[o.kind].n++
		p.kinds[o.kind].ns += float64(d)
		prev = now
	}
	p.elapsed = prev.Sub(start)
	return p
}

// openLoop issues ops on a fixed schedule of rate per second for the
// window from up to callers goroutines. Each caller takes the next due
// request, waits until it is due if it is early, and sends it. A request
// still unsent grace after the window closed is dropped: the generator has
// fallen that far behind. Latencies are split into windows of win (0 =
// none). With allowed >= 0 the phase is a ladder rung with an SLO: once
// more than allowed requests have failed or taken longer than limit, the
// rung has failed, and the rest of its requests are dropped rather than
// pile more overload on the program.
func openLoop(t target, rate float64, window, grace, win time.Duration, callers int, limit time.Duration, allowed int) *phase {
	var mu sync.Mutex
	issued, misses := 0, 0
	total := int(rate * window.Seconds())
	interval := float64(time.Second) / rate
	start := time.Now()
	cutoff := start.Add(window + grace)

	parts := make([]*phase, callers)
	var wg sync.WaitGroup
	for c := range parts {
		p := newPhase(len(t.names), win)
		parts[c] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if allowed >= 0 && misses > allowed {
					p.dropped += total - issued
					issued = total
				}
				if issued == total {
					mu.Unlock()
					return
				}
				i := issued
				issued++
				o := t.next()
				mu.Unlock()

				due := start.Add(time.Duration(float64(i) * interval))
				now := waitUntil(due)
				if now.After(cutoff) {
					p.dropped++
					continue
				}
				p.late.add(now.Sub(due))
				err := p.call(t.names[o.kind], func() error { return t.do(o) })
				done := time.Now()
				if err == nil {
					p.addLat(due.Sub(start), done.Sub(due))
					p.service.add(done.Sub(now))
				}
				if allowed >= 0 && (err != nil || done.Sub(due) > limit) {
					mu.Lock()
					misses++
					mu.Unlock()
				}
				p.kinds[o.kind].n++
				p.kinds[o.kind].ns += float64(done.Sub(now))
			}
		}()
	}
	wg.Wait()
	out := newPhase(len(t.names), win)
	for _, p := range parts {
		out.merge(p)
	}
	out.elapsed = time.Since(start)
	return out
}

// waitUntil returns once due has passed, and the time it returned at.
// The OS timer wakes a sleeper up to about a millisecond late, which at
// thousands of requests per second would make the generator, not the
// program, set the latency; so it sleeps only to within spinWindow of due
// and yields the processor in a loop for the rest.
func waitUntil(due time.Time) time.Time {
	for {
		now := time.Now()
		switch d := due.Sub(now); {
		case d <= 0:
			return now
		case d > spinWindow:
			time.Sleep(d - spinWindow)
		default:
			runtime.Gosched()
		}
	}
}

const spinWindow = 2 * time.Millisecond

// settle is the idle time after a failed rung.
const settle = 200 * time.Millisecond

// The SLO ladder is one fixed set of open-loop rates:
// ladderBase·2^(k/16) per second for k >= 0, steps of about 4.4%.
const ladderBase = 100

func ladderRate(k int) float64 { return ladderBase * math.Exp2(float64(k)/16) }

// ladderIndex returns the highest k whose rate does not exceed rate.
func ladderIndex(rate float64) int {
	return max(int(math.Floor(16*math.Log2(rate/ladderBase)+1e-9)), 0)
}

// rung is one measured ladder rate.
type rung struct {
	rate     float64
	achieved float64 // completed requests per second of the rung
	tail     float64 // ns at the SLO quantile of the requests that completed
	pass     bool
	phase    *phase
}

// sloStaircase estimates the highest ladder rate that meets the SLO: at
// most beyond(n, q) of the n requests due at a rung fail, are dropped, or
// take longer than limit from due to done (a drop also means the backlog
// grew past the limit). Starting at rung k0, it climbs coarseStep rungs
// after each pass until the first failure, halves back towards the last
// pass, and from then on walks the ladder one rung down after a failure
// and one up after a pass — an up-down staircase, which keeps measuring
// around the boundary however noisy single rungs are. It runs rungs until
// budget is spent and returns the median completed rate of the rungs that
// passed after the first failure (else the last rung that passed, else 0),
// with every rung measured.
func sloStaircase(k0 int, budget time.Duration, q float64, limit time.Duration, measure func(rate float64) *phase) (slo float64, tried []rung) {
	const coarseStep = 4
	start := time.Now()
	k, lastPass, failed := k0, -1, false
	var passed []float64
	for len(tried) == 0 || time.Since(start) < budget {
		if len(tried) > 0 && !tried[len(tried)-1].pass {
			// Let the program recover from the overload before the
			// next rung, which is measured on its own.
			time.Sleep(settle)
		}
		r := rung{rate: ladderRate(k), phase: measure(ladderRate(k))}
		p := r.phase
		n := p.attempted + p.dropped
		misses := p.failed + p.dropped + p.lat.countAbove(limit)
		r.pass = p.dropped == 0 && n > 0 && misses <= beyond(n, q)
		r.tail = p.lat.quantile(q)
		r.achieved = float64(p.attempted-p.failed) / p.elapsed.Seconds()
		tried = append(tried, r)
		switch {
		case r.pass && !failed:
			slo, lastPass = r.achieved, k
			k += coarseStep
		case r.pass:
			passed = append(passed, r.achieved)
			k++
		case !failed && lastPass >= 0:
			failed = true
			k = lastPass + (k-lastPass)/2
		default:
			failed = true
			k = max(k-1, 0)
		}
	}
	if len(passed) > 0 {
		slo = median(passed)
	}
	return slo, tried
}
