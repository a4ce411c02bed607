package gc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/assertions"
	"repro/internal/classes"
	"repro/internal/report"
	"repro/internal/roots"
	"repro/internal/threads"
	"repro/internal/vmheap"
)

// randomWorld builds a random object graph under both a plain and an
// ownership-instrumented collector, identically.
type randomWorld struct {
	w     *world
	c     *MarkSweep
	nodes []vmheap.Ref
}

func buildRandom(t *testing.T, seed int64, withOwnership bool) *randomWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := &world{
		h:   vmheap.New(1 << 13),
		reg: classes.NewRegistry(),
		ts:  threads.NewSet(),
		gl:  roots.NewTable(),
		rec: &report.Recorder{},
	}
	w.node = w.reg.MustDefine("Node", nil,
		classes.Field{Name: "next", Kind: classes.RefKind})
	w.next = uint32(w.node.MustFieldIndex("next"))
	w.eng = assertions.New(w.h, w.reg, w.ts, w.rec)
	c := NewMarkSweep(w.h, w.reg, w.src(), Infrastructure, w.eng)

	const n = 60
	nodes := make([]vmheap.Ref, n)
	for i := range nodes {
		nodes[i] = w.alloc(t)
	}
	for i := range nodes {
		if rng.Intn(3) > 0 {
			w.h.SetRefAt(nodes[i], w.next, nodes[rng.Intn(n)])
		}
	}
	for i := 0; i < 4; i++ {
		w.gl.Add(string(rune('a' + i))).Set(nodes[rng.Intn(n)])
	}

	if withOwnership {
		// Owners must be root-reachable for the survivor-set invariant
		// (a dead owner's region legitimately survives one extra cycle),
		// so pick owners among directly rooted nodes and ownees among
		// their direct successors.
		seen := map[vmheap.Ref]bool{}
		w.gl.EachRoot(func(slot *vmheap.Ref) {
			owner := *slot
			if seen[owner] {
				return
			}
			seen[owner] = true
			ownee := w.h.RefAt(owner, w.next)
			if ownee == vmheap.Nil || seen[ownee] {
				return
			}
			if err := w.eng.AssertOwnedBy(owner, ownee); err == nil {
				seen[ownee] = true
			}
		})
	}
	return &randomWorld{w: w, c: c, nodes: nodes}
}

// survivors runs one collection and returns the surviving node set.
func (r *randomWorld) survivors(t *testing.T) map[vmheap.Ref]bool {
	t.Helper()
	if err := r.c.Collect(); err != nil {
		t.Fatal(err)
	}
	out := map[vmheap.Ref]bool{}
	r.w.h.Iterate(func(ref vmheap.Ref, _ uint64) { out[ref] = true })
	return out
}

// Property (DESIGN.md invariant 5): with live owners, the ownership phase
// never changes which objects survive a collection.
func TestPropertyOwnershipPreservesSurvivors(t *testing.T) {
	f := func(seed int64) bool {
		plain := buildRandom(t, seed, false)
		owned := buildRandom(t, seed, true)
		s1 := plain.survivors(t)
		s2 := owned.survivors(t)
		if len(s1) != len(s2) {
			return false
		}
		for r := range s1 {
			if !s2[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: repeated collections of an unchanged heap are idempotent —
// the second collection frees nothing and survivor sets stay identical.
func TestPropertyCollectionIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		w := buildRandom(t, seed, false)
		s1 := w.survivors(t)
		freedBefore := w.c.Stats().FreedObjects
		s2 := w.survivors(t)
		if w.c.Stats().FreedObjects != freedBefore {
			return false
		}
		if len(s1) != len(s2) {
			return false
		}
		for r := range s1 {
			if !s2[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: mark-bit idempotence holds for the serial tracer — re-running
// a full collection with no intervening mutation frees nothing and reports
// nothing. A trace that left a mark set (or a check that misfired on the
// re-trace) breaks this immediately.
func TestPropertyMarkBitIdempotentBothTracers(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		f := func(seed int64) bool {
			w := buildRandom(t, seed, false)
			s1 := w.survivors(t)
			freedBefore := w.c.Stats().FreedObjects
			violationsBefore := len(w.w.rec.Violations)
			s2 := w.survivors(t)
			if w.c.Stats().FreedObjects != freedBefore {
				return false
			}
			if len(w.w.rec.Violations) != violationsBefore {
				return false
			}
			if len(s1) != len(s2) {
				return false
			}
			for r := range s1 {
				if !s2[r] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Error(err)
		}
	})
}

// Property: the heap passes the structural verifier after any collection
// of a random graph.
func TestPropertyHeapVerifiesAfterCollection(t *testing.T) {
	f := func(seed int64) bool {
		w := buildRandom(t, seed, true)
		w.survivors(t)
		return len(w.w.h.Verify(w.w.reg)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
