package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/report"
)

// TestSideTabVerdicts drives random mutator scripts against the dense
// epoch-stamped side tables and then arms every assertion kind, checking
// the verdicts each table is responsible for.
//
// Every table is on trial: the per-cycle dead/shared/improper dedupe
// tables (dead + unshared asserts), the region membership table (a region
// bracket with a deliberate survivor, which every collection must report
// exactly once as RegionSurvivor), the owner index (an ownership
// registration whose ownee is root-reachable outside its owner, which
// every collection must report exactly once as UnownedOwnee), and
// instance counting. Both zoned-rotation and whole-heap collection
// schedules run under all three collector modes. The tables themselves
// are checked against map models by FuzzSideTab.
func TestSideTabVerdicts(t *testing.T) {
	for _, mode := range zoneDiffModes() {
		for seed := int64(1); seed <= 3; seed++ {
			mode, seed := mode, seed
			t.Run(fmt.Sprintf("%s_seed%d", mode.name, seed), func(t *testing.T) {
				runSideTabVerdicts(t, mode, seed, false)
				runSideTabVerdicts(t, mode, seed, true)
			})
		}
	}
}

func runSideTabVerdicts(t *testing.T, mode zoneMode, seed int64, zoned bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	script := make([]diffOp, 1200)
	for i := range script {
		script[i] = diffOp{byte(rng.Intn(100)), byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
	regChoice := make([]int, diffSlots)
	for s := range regChoice {
		regChoice[s] = rng.Intn(3)
	}
	limit := int64(rng.Intn(4))

	zones := 0
	if zoned {
		zones = zdZones
	}
	w := newZoneDiffWorld(mode.cfg(), zones, zoned)
	for _, op := range script {
		w.apply(t, op)
	}

	// Quiesce (stop the pacer, settle outstanding garbage) before any
	// assertion registers.
	if err := w.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.rt.GC(); err != nil {
		t.Fatalf("quiesce GC: %v", err)
	}

	// Region bracket with a deliberate survivor: two throwaway allocations
	// plus one kept in a frame slot. The survivor must be reported as
	// RegionSurvivor — through the region side table.
	if err := w.th.StartRegion(); err != nil {
		t.Fatalf("StartRegion: %v", err)
	}
	w.record(w.th.New(w.node))
	w.record(w.th.New(w.node))
	survivor := w.record(w.th.New(w.node))
	w.fr.SetLocal(0, survivor)
	if err := w.th.AssertAllDead(); err != nil {
		t.Fatalf("AssertAllDead: %v", err)
	}

	// Ownership: first two distinct node-class locals become an
	// owner/ownee pair. The ownee sits in a root slot outside its owner's
	// region, so UnownedOwnee must fire — through the owner index and the
	// improper dedupe table.
	var owner, ownee Ref
	for s := 0; s < diffSlots; s++ {
		r := w.fr.Local(s)
		if r == Nil || w.rt.ClassOf(r) != w.node || r == owner {
			continue
		}
		if owner == Nil {
			owner = r
		} else {
			ownee = r
			break
		}
	}
	if owner != Nil && ownee != Nil {
		if err := w.rt.AssertOwnedBy(owner, ownee); err != nil {
			t.Fatalf("AssertOwnedBy: %v", err)
		}
	}

	for s, c := range regChoice {
		r := w.fr.Local(s)
		if r == Nil || r == owner || r == ownee {
			continue
		}
		switch c {
		case 0:
			if err := w.rt.AssertDead(r); err != nil {
				t.Fatalf("AssertDead: %v", err)
			}
			w.fr.SetLocal(s, Nil)
		case 1:
			if err := w.rt.AssertUnshared(r); err != nil {
				t.Fatalf("AssertUnshared: %v", err)
			}
		}
	}
	if err := w.rt.AssertInstances(w.node, limit); err != nil {
		t.Fatalf("AssertInstances: %v", err)
	}
	// Each collection reports the survivor and the ownee exactly once:
	// the per-cycle dedupe tables absorb every further encounter, and
	// both objects stay reachable, so each new cycle reports them again.
	checkCycle := func(stage string) {
		t.Helper()
		verdicts := drainSorted(w.diffWorld)
		count := func(kind report.Kind, r Ref) int {
			prefix := fmt.Sprintf("%v|%s#%d|", kind, w.node.Name, w.ids[r])
			n := 0
			for _, v := range verdicts {
				if strings.HasPrefix(v, prefix) {
					n++
				}
			}
			return n
		}
		if n := count(report.RegionSurvivor, survivor); n != 1 {
			t.Errorf("zoned=%v, %s: %d RegionSurvivor reports for the region survivor, want 1\nverdicts: %v",
				zoned, stage, n, verdicts)
		}
		if ownee != Nil {
			if n := count(report.UnownedOwnee, ownee); n != 1 {
				t.Errorf("zoned=%v, %s: %d UnownedOwnee reports for the ownee, want 1\nverdicts: %v",
					zoned, stage, n, verdicts)
			}
		}
	}
	if err := w.rt.GC(); err != nil {
		t.Fatalf("settling GC: %v", err)
	}
	checkCycle("settling GC")
	w.collect(t)
	checkCycle("final collection")

	if errs := w.rt.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("zoned=%v: heap corrupt: %v", zoned, errs[0])
	}
	if b := w.rt.Stats().GC.SideTabChunkBytes; b == 0 {
		t.Errorf("zoned=%v: zero side-table chunk bytes reported", zoned)
	}
}
