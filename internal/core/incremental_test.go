package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/gc"
)

// Tests for incremental collection cycles (Config.IncrementalBudget > 0):
// the assertion matrix (every assertion kind under every cycle schedule,
// including mutations racing the mark slices), the pause-accounting
// invariants across stop-the-world/incremental configurations, the config
// validation, and the allocation-triggered cycle path.

// incFix is one runtime under a chosen schedule, with a small class and a
// few global roots to build scenarios in.
type incFix struct {
	rt         *Runtime
	th         *Thread
	node       *Class
	aOff, bOff uint16
	g          []*Global
}

func newIncFix(budget int) *incFix {
	rt := New(Config{HeapWords: 1 << 12, Mode: Infrastructure, IncrementalBudget: budget})
	f := &incFix{rt: rt, th: rt.MainThread()}
	f.node = rt.DefineClass("Node", RefField("a"), RefField("b"))
	f.aOff = f.node.MustFieldIndex("a")
	f.bOff = f.node.MustFieldIndex("b")
	for i := 0; i < 4; i++ {
		f.g = append(f.g, rt.AddGlobal(fmt.Sprintf("g%d", i)))
	}
	return f
}

// renderKinds reduces the recorded violations to sorted "kind count/limit"
// strings — the schedule-independent part of each violation (object refs
// diverge across schedules because sweep timing moves the free lists, and
// paths are snapshot-relative under incremental marking).
func renderKinds(rt *Runtime) []string {
	var out []string
	for _, v := range rt.Violations() {
		out = append(out, fmt.Sprintf("%v %d/%d", v.Kind, v.Count, v.Limit))
	}
	sort.Strings(out)
	return out
}

// TestIncrementalAssertionMatrix drives every assertion kind through every
// cycle schedule. Each case's setup registers the assertion and returns a
// mutation that — after the snapshot is taken — destroys the very evidence
// the assertion check needs (unroots the dead object, severs the sharing
// edge, hides the ownee). Snapshot-at-beginning semantics require the
// violations to be reported anyway, identically on every schedule.
func TestIncrementalAssertionMatrix(t *testing.T) {
	type caseT struct {
		name string
		// setup builds the scenario on f and returns the racing mutation.
		setup func(f *incFix) (mutate func())
		want  []string
	}
	cases := []caseT{
		{
			name: "assert-dead",
			setup: func(f *incFix) func() {
				o := f.th.New(f.node)
				f.g[0].Set(o)
				if err := f.rt.AssertDead(o); err != nil {
					t.Fatal(err)
				}
				return func() { f.g[0].Set(Nil) }
			},
			want: []string{"assert-dead 0/0"},
		},
		{
			name: "assert-alldead",
			setup: func(f *incFix) func() {
				if err := f.th.StartRegion(); err != nil {
					t.Fatal(err)
				}
				o := f.th.New(f.node)
				f.g[0].Set(o)
				if err := f.th.AssertAllDead(); err != nil {
					t.Fatal(err)
				}
				return func() { f.g[0].Set(Nil) }
			},
			want: []string{"assert-alldead 0/0"},
		},
		{
			name: "assert-instances",
			setup: func(f *incFix) func() {
				if err := f.rt.AssertInstances(f.node, 1); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					f.g[i].Set(f.th.New(f.node))
				}
				return func() { f.g[2].Set(Nil) }
			},
			want: []string{"assert-instances 3/1"},
		},
		{
			name: "assert-unshared",
			setup: func(f *incFix) func() {
				child := f.th.New(f.node)
				p1, p2 := f.th.New(f.node), f.th.New(f.node)
				f.g[0].Set(p1)
				f.g[1].Set(p2)
				f.rt.SetRef(p1, f.aOff, child)
				f.rt.SetRef(p2, f.aOff, child)
				if err := f.rt.AssertUnshared(child); err != nil {
					t.Fatal(err)
				}
				// Severing the second edge mid-cycle fires the write
				// barrier on p2, which is precisely where the snapshot's
				// second encounter of child must come from.
				return func() { f.rt.SetRef(p2, f.aOff, Nil) }
			},
			want: []string{"assert-unshared 0/0"},
		},
		{
			name: "assert-ownedby-unowned",
			setup: func(f *incFix) func() {
				owner, ownee := f.th.New(f.node), f.th.New(f.node)
				f.g[0].Set(owner)
				f.g[1].Set(ownee) // reachable, but not through owner
				if err := f.rt.AssertOwnedBy(owner, ownee); err != nil {
					t.Fatal(err)
				}
				return func() { f.g[1].Set(Nil) }
			},
			want: []string{"assert-ownedby 0/0"},
		},
		{
			name: "assert-ownedby-improper",
			setup: func(f *incFix) func() {
				ownerA, ownerB := f.th.New(f.node), f.th.New(f.node)
				e, e2 := f.th.New(f.node), f.th.New(f.node)
				f.g[0].Set(ownerA)
				f.g[1].Set(ownerB)
				f.rt.SetRef(ownerB, f.aOff, e2)
				f.rt.SetRef(ownerB, f.bOff, e) // B's subtree reaches A's ownee
				if err := f.rt.AssertOwnedBy(ownerA, e); err != nil {
					t.Fatal(err)
				}
				if err := f.rt.AssertOwnedBy(ownerB, e2); err != nil {
					t.Fatal(err)
				}
				return func() { f.rt.SetRef(ownerB, f.bOff, Nil) }
			},
			want: []string{"assert-ownedby (improper use) 0/0"},
		},
	}

	type schedT struct {
		name   string
		budget int
		drive  func(t *testing.T, f *incFix, mutate func())
	}
	finishSteps := func(t *testing.T, f *incFix) {
		for i := 0; ; i++ {
			done, err := f.rt.GCStep()
			if err != nil {
				t.Fatal(err)
			}
			if done {
				return
			}
			if i > 10000 {
				t.Fatal("cycle did not terminate")
			}
		}
	}
	scheds := []schedT{
		{"stop-the-world", 0, func(t *testing.T, f *incFix, _ func()) {
			// Baseline: the mutation never runs; a plain collection of the
			// snapshot state defines the expected violations.
			if err := f.rt.GC(); err != nil {
				t.Fatal(err)
			}
		}},
		{"finish", 1, func(t *testing.T, f *incFix, _ func()) {
			if err := f.rt.StartGC(); err != nil {
				t.Fatal(err)
			}
			if err := f.rt.FinishGC(); err != nil {
				t.Fatal(err)
			}
		}},
		{"steps", 1, func(t *testing.T, f *incFix, _ func()) {
			if err := f.rt.StartGC(); err != nil {
				t.Fatal(err)
			}
			finishSteps(t, f)
		}},
		{"race-steps", 1, func(t *testing.T, f *incFix, mutate func()) {
			if err := f.rt.StartGC(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.rt.GCStep(); err != nil {
				t.Fatal(err)
			}
			mutate()
			finishSteps(t, f)
		}},
		{"race-finish", 1, func(t *testing.T, f *incFix, mutate func()) {
			if err := f.rt.StartGC(); err != nil {
				t.Fatal(err)
			}
			mutate()
			if err := f.rt.FinishGC(); err != nil {
				t.Fatal(err)
			}
		}},
		{"race-tax", 1, func(t *testing.T, f *incFix, mutate func()) {
			if err := f.rt.StartGC(); err != nil {
				t.Fatal(err)
			}
			mutate()
			// Unrooted allocations pay the tax slice until it completes
			// the cycle; allocate-black keeps them out of every check.
			for i := 0; f.rt.GCActive(); i++ {
				f.th.New(f.node)
				if i > 10000 {
					t.Fatal("allocation tax never completed the cycle")
				}
			}
			if err := f.rt.FinishGC(); err != nil { // surfaces a stashed halt, if any
				t.Fatal(err)
			}
		}},
	}

	for _, c := range cases {
		for _, s := range scheds {
			t.Run(c.name+"/"+s.name, func(t *testing.T) {
				f := newIncFix(s.budget)
				mutate := c.setup(f)
				f.rt.ResetViolations()
				s.drive(t, f, mutate)
				if f.rt.GCActive() {
					t.Fatal("cycle still active after schedule")
				}
				got := renderKinds(f.rt)
				if strings.Join(got, ",") != strings.Join(c.want, ",") {
					t.Fatalf("violations = %v, want %v", got, c.want)
				}
				if errs := f.rt.VerifyHeap(); len(errs) > 0 {
					t.Fatalf("heap corrupt: %v", errs)
				}
			})
		}
	}
}

// TestIncrementalStatsInvariants is the pause-accounting regression across
// the stop-the-world and incremental configurations: all collector work happens inside
// stop-the-world pauses, so PauseTime must equal GCTime exactly, MaxPause
// must never exceed PauseTime, and the incremental counters must be zero
// exactly when incremental mode is off.
func TestIncrementalStatsInvariants(t *testing.T) {
	run := func(t *testing.T, budget int) gc.Stats {
		rt := New(Config{HeapWords: 1 << 12, Mode: Infrastructure, IncrementalBudget: budget})
		node := rt.DefineClass("Node", RefField("a"), RefField("b"))
		aOff := node.MustFieldIndex("a")
		th := rt.MainThread()
		g := rt.AddGlobal("g")

		for round := 0; round < 4; round++ {
			head := th.New(node)
			g.Set(head)
			for i := 0; i < 40; i++ {
				n := th.New(node)
				rt.SetRef(n, aOff, g.Get())
				g.Set(n)
			}
			if budget > 0 {
				if err := rt.StartGC(); err != nil {
					t.Fatal(err)
				}
				// Run a bounded slice, mutate so barrier scans happen, then
				// complete. (The completion drain is part of the completion
				// pause, not a bounded slice, so MarkSlices counts only the
				// explicit step.) The mutation targets the chain's tail —
				// the object the mark slices reach last — so it is still
				// unscanned and the write triggers a snapshot scan.
				if _, err := rt.GCStep(); err != nil {
					t.Fatal(err)
				}
				rt.SetRef(head, aOff, Nil)
				if err := rt.FinishGC(); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := rt.GC(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return rt.Stats().GC
	}

	configs := []struct {
		name   string
		budget int
	}{
		{"serial", 0},
		{"incremental", 2},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			s := run(t, cfg.budget)
			if s.PauseTime != s.GCTime {
				t.Errorf("PauseTime %v != GCTime %v (all work is stop-the-world)", s.PauseTime, s.GCTime)
			}
			if s.MaxPause > s.PauseTime || s.MaxPause <= 0 {
				t.Errorf("MaxPause %v out of range (PauseTime %v)", s.MaxPause, s.PauseTime)
			}
			if s.FullCollections != 4 {
				t.Errorf("FullCollections = %d, want 4", s.FullCollections)
			}
			if cfg.budget > 0 {
				if s.IncrementalCycles != s.FullCollections {
					t.Errorf("IncrementalCycles = %d, want %d (every full collection ran incrementally)",
						s.IncrementalCycles, s.FullCollections)
				}
				if s.MarkSlices < s.IncrementalCycles {
					t.Errorf("MarkSlices = %d < cycles %d", s.MarkSlices, s.IncrementalCycles)
				}
				if s.BarrierScans == 0 || s.BarrierRefs == 0 {
					t.Errorf("no barrier activity (scans=%d refs=%d) despite racing mutations",
						s.BarrierScans, s.BarrierRefs)
				}
			} else if s.IncrementalCycles != 0 || s.MarkSlices != 0 || s.BarrierScans != 0 {
				t.Errorf("incremental counters nonzero in non-incremental config: %+v", s)
			}
		})
	}
}

// TestIncrementalConfigValidation: nonsensical configurations must be
// rejected at construction.
func TestIncrementalConfigValidation(t *testing.T) {
	mustPanic := func(name string, cfg Config) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		})
	}
	mustPanic("negative-budget", Config{HeapWords: 1 << 10, Mode: Infrastructure, IncrementalBudget: -1})
	mustPanic("base-mode", Config{HeapWords: 1 << 10, Mode: Base, IncrementalBudget: 4})
}

// TestIncrementalAPIOnStopTheWorld: with budget 0 the incremental driving
// API degrades to plain stop-the-world collections, so code written against
// StartGC/GCStep/FinishGC runs unchanged under the paper's configuration.
func TestIncrementalAPIOnStopTheWorld(t *testing.T) {
	rt := New(Config{HeapWords: 1 << 10, Mode: Infrastructure})
	th := rt.MainThread()
	node := rt.DefineClass("Node", RefField("a"), RefField("b"))
	th.New(node)
	if err := rt.StartGC(); err != nil {
		t.Fatal(err)
	}
	if rt.GCActive() {
		t.Fatal("budget 0: StartGC left a cycle active")
	}
	if got := rt.Stats().GC.FullCollections; got != 1 {
		t.Fatalf("budget 0: StartGC ran %d full collections, want 1", got)
	}
	if done, err := rt.GCStep(); err != nil || !done {
		t.Fatalf("budget 0: GCStep = (%v, %v), want (true, nil)", done, err)
	}
	if err := rt.FinishGC(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats().GC.FullCollections; got != 1 {
		t.Fatalf("budget 0: Step/Finish ran extra collections (total %d)", got)
	}
}

// TestIncrementalRegistrationForcesCompletion: registering an assertion
// while a cycle is in flight completes the cycle first — registration is a
// snapshot-boundary operation.
func TestIncrementalRegistrationForcesCompletion(t *testing.T) {
	f := newIncFix(1)
	o := f.th.New(f.node)
	f.g[0].Set(o)
	dead := f.th.New(f.node)
	f.g[1].Set(dead)
	if err := f.rt.AssertDead(dead); err != nil {
		t.Fatal(err)
	}
	if err := f.rt.StartGC(); err != nil {
		t.Fatal(err)
	}
	if !f.rt.GCActive() {
		t.Fatal("no active cycle after StartGC")
	}
	if err := f.rt.AssertUnshared(o); err != nil {
		t.Fatal(err)
	}
	if f.rt.GCActive() {
		t.Fatal("registration did not complete the in-flight cycle")
	}
	if got := renderKinds(f.rt); strings.Join(got, ",") != "assert-dead 0/0" {
		t.Fatalf("forced completion reported %v, want the dead violation", got)
	}
}

// TestIncrementalAllocationTrigger: with no explicit GC calls at all, low
// free space starts a cycle and the per-allocation tax completes it.
func TestIncrementalAllocationTrigger(t *testing.T) {
	rt := New(Config{HeapWords: 1 << 10, Mode: Infrastructure, IncrementalBudget: 8})
	node := rt.DefineClass("Node", RefField("a"), RefField("b"))
	th := rt.MainThread()
	for i := 0; i < 400; i++ {
		th.New(node) // unrooted: pure garbage
	}
	s := rt.Stats().GC
	if s.IncrementalCycles == 0 {
		t.Fatalf("allocation pressure never triggered an incremental cycle: %+v", s)
	}
	if s.MarkSlices == 0 {
		t.Fatalf("no tax slices ran: %+v", s)
	}
	if errs := rt.VerifyHeap(); len(errs) > 0 && rt.GCActive() {
		t.Fatalf("heap corrupt: %v", errs)
	}
}
