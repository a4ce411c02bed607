package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// Differential tests for the telemetry subsystem: attaching a recorder must
// be pure observation. A world emitting every event into an NDJSON sink has
// to finish byte-identical to a silent world running the same script — the
// same objects at the same addresses, the same violations, the same
// counters. Unlike the alloc differentials this comparison is
// address-exact: telemetry never allocates from the simulated heap, so even
// placement may not shift.

// buildTeleWorld is buildSweepWorld plus optional telemetry and the full
// spread of collector knobs the emit points thread through.
func buildTeleWorld(cfg Config, sink *bytes.Buffer) *sweepWorld {
	cfg.HeapWords = 1 << 13
	cfg.Mode = Infrastructure
	if sink != nil {
		cfg.Telemetry = &telemetry.Config{Sink: sink}
	}
	rt := New(cfg)
	node := rt.DefineClass("Node", RefField("a"), RefField("b"))
	leaf := rt.DefineSubclass("Leaf", node)
	w := &sweepWorld{
		rt: rt, th: rt.MainThread(), node: node, leaf: leaf,
		aOff: node.MustFieldIndex("a"), bOff: node.MustFieldIndex("b"),
	}
	w.fr = w.th.PushFrame(sweepSlots)
	if err := rt.AssertInstancesIncludingSubclasses(node, 24); err != nil {
		panic(err)
	}
	if err := rt.AssertInstances(leaf, 6); err != nil {
		panic(err)
	}
	return w
}

// stripTimes zeroes the wall-clock fields of a snapshot. Durations
// legitimately differ across two runs of the same script; every discrete
// counter must not.
func stripTimes(s Snapshot) Snapshot {
	s.GC.GCTime, s.GC.FullGCTime = 0, 0
	s.GC.PauseTime, s.GC.MaxPause = 0, 0
	s.GC.PauseLog, s.GC.SweepPauseLog = nil, nil
	s.Sweep.DeferredSweepTime = 0
	return s
}

func compareTeleWorlds(t *testing.T, label string, silent, traced *sweepWorld) {
	t.Helper()
	// Address-exact: LiveSet includes each object's Ref.
	if a, b := silent.rt.LiveSet(), traced.rt.LiveSet(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: live sets differ (%d vs %d objects)", label, len(a), len(b))
	}
	if a, b := renderViolations(silent.rt), renderViolations(traced.rt); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: violations differ:\n  silent: %v\n  traced: %v", label, a, b)
	}
	if a, b := stripTimes(silent.rt.Stats()), stripTimes(traced.rt.Stats()); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: stats diverge:\n  silent: %+v\n  traced: %+v", label, a, b)
	}
	if a, b := silent.rt.FreeChunks(), traced.rt.FreeChunks(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: free lists differ", label)
	}
}

// TestTelemetryDifferential runs identical scripts through a silent and a
// recording world across the collector/sweep/alloc configurations that host
// emit points, checking byte-identical outcomes and a well-formed event
// stream on the recording side.
func TestTelemetryDifferential(t *testing.T) {
	SetDebugChecks(true)
	defer SetDebugChecks(false)

	configs := []struct {
		name string
		cfg  Config
	}{
		{"marksweep", Config{}},
		{"marksweep/lazy", Config{LazySweep: true}},
		{"marksweep/buffered", Config{AllocBuffers: 256}},
		{"generational", Config{Collector: Generational}},
		{"generational/parsweep", Config{Collector: Generational, SweepWorkers: 2}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				rng := rand.New(rand.NewSource(seed))
				silent := buildTeleWorld(tc.cfg, nil)
				var sink bytes.Buffer
				traced := buildTeleWorld(tc.cfg, &sink)

				for round := 0; round < 5; round++ {
					for step := 0; step < 80; step++ {
						code, i, k := byte(rng.Intn(9)), byte(rng.Intn(256)), byte(rng.Intn(256))
						silent.apply(code, i, k)
						traced.apply(code, i, k)
					}
					if err := silent.rt.GC(); err != nil {
						t.Fatalf("seed %d round %d: GC (silent): %v", seed, round, err)
					}
					if err := traced.rt.GC(); err != nil {
						t.Fatalf("seed %d round %d: GC (traced): %v", seed, round, err)
					}
					compareTeleWorlds(t, fmt.Sprintf("seed %d round %d", seed, round), silent, traced)
				}

				if errs := traced.rt.VerifyHeap(); len(errs) > 0 {
					t.Fatalf("seed %d: traced heap corrupt: %v", seed, errs[0])
				}
				// The comparison is vacuous unless events actually flowed.
				events, err := telemetry.ReadEvents(bytes.NewReader(sink.Bytes()))
				if err != nil {
					t.Fatalf("seed %d: sink stream malformed: %v", seed, err)
				}
				sum := telemetry.Summarize(events)
				if sum.Cycles == 0 || sum.Pause.Count == 0 {
					t.Fatalf("seed %d: recording world emitted no cycles (%d events)", seed, len(events))
				}
				if silent.rt.Telemetry() != nil {
					t.Fatal("silent world has a recorder attached")
				}
			}
		})
	}
}

// TestTelemetryIncrementalDifferential is the same equivalence under
// incremental cycles driven step by step, where the emit points sit inside
// the bounded pauses (roots, slices, barrier scans, completion).
func TestTelemetryIncrementalDifferential(t *testing.T) {
	SetDebugChecks(true)
	defer SetDebugChecks(false)

	rng := rand.New(rand.NewSource(7))
	silent := buildTeleWorld(Config{IncrementalBudget: 8}, nil)
	var sink bytes.Buffer
	traced := buildTeleWorld(Config{IncrementalBudget: 8}, &sink)

	for round := 0; round < 5; round++ {
		for step := 0; step < 40; step++ {
			code, i, k := byte(rng.Intn(9)), byte(rng.Intn(256)), byte(rng.Intn(256))
			silent.apply(code, i, k)
			traced.apply(code, i, k)
		}
		if err := silent.rt.StartGC(); err != nil {
			t.Fatalf("round %d: StartGC (silent): %v", round, err)
		}
		if err := traced.rt.StartGC(); err != nil {
			t.Fatalf("round %d: StartGC (traced): %v", round, err)
		}
		for step := 0; step < 20; step++ {
			code, i, k := byte(rng.Intn(9)), byte(rng.Intn(256)), byte(rng.Intn(256))
			silent.apply(code, i, k)
			traced.apply(code, i, k)
			if step%4 == 3 {
				if _, err := silent.rt.GCStep(); err != nil {
					t.Fatalf("round %d: GCStep (silent): %v", round, err)
				}
				if _, err := traced.rt.GCStep(); err != nil {
					t.Fatalf("round %d: GCStep (traced): %v", round, err)
				}
			}
		}
		if err := silent.rt.FinishGC(); err != nil {
			t.Fatalf("round %d: FinishGC (silent): %v", round, err)
		}
		if err := traced.rt.FinishGC(); err != nil {
			t.Fatalf("round %d: FinishGC (traced): %v", round, err)
		}
		compareTeleWorlds(t, fmt.Sprintf("round %d", round), silent, traced)
	}

	events, err := telemetry.ReadEvents(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("sink stream malformed: %v", err)
	}
	sum := telemetry.Summarize(events)
	phases := map[string]bool{}
	for _, p := range sum.Phases {
		phases[p.Phase] = p.Count > 0
	}
	for _, want := range []string{"inc_roots", "inc_slice", "inc_finish"} {
		if !phases[want] {
			t.Errorf("incremental phase %q missing from the event stream", want)
		}
	}
}
