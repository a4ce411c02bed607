package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestSideTabDifferential drives identical mutator scripts against a
// runtime using the dense epoch-stamped side tables (the default) and one
// using the original map[Ref] implementations (Config.MapSideTables), and
// requires identical observable behavior: the same assertion verdicts
// (rendered by script-assigned id, as a multiset) and the same live sets.
//
// Every converted table is on trial: the per-cycle dead/shared/improper
// dedupe tables (dead + unshared asserts), the region membership table
// (a region bracket with a deliberate survivor), the owner index
// (an ownership registration whose ownee is root-reachable outside its
// owner, firing UnownedOwnee), and instance counting. Both zoned-rotation
// and whole-heap collection schedules run under all three collector modes.
func TestSideTabDifferential(t *testing.T) {
	for _, mode := range zoneDiffModes() {
		for seed := int64(1); seed <= 3; seed++ {
			mode, seed := mode, seed
			t.Run(fmt.Sprintf("%s_seed%d", mode.name, seed), func(t *testing.T) {
				runSideTabDifferential(t, mode, seed, false)
				runSideTabDifferential(t, mode, seed, true)
			})
		}
	}
}

func newSideTabWorld(cfg Config, mapTables, zoned bool) *zoneDiffWorld {
	cfg.MapSideTables = mapTables
	zones := 0
	if zoned {
		zones = zdZones
	}
	return newZoneDiffWorld(cfg, zones, zoned)
}

func runSideTabDifferential(t *testing.T, mode zoneMode, seed int64, zoned bool) {
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

	mapW := newSideTabWorld(mode.cfg(), true, zoned)
	denseW := newSideTabWorld(mode.cfg(), false, zoned)
	worlds := []*zoneDiffWorld{mapW, denseW}
	for _, op := range script {
		for _, w := range worlds {
			w.apply(t, op)
		}
	}

	for _, w := range worlds {
		// Quiesce (stop the pacer, settle outstanding garbage) before any
		// assertion registers, so the concurrent world's extra cycles stay
		// invisible to the verdict comparison.
		if err := w.rt.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := w.rt.GC(); err != nil {
			t.Fatalf("quiesce GC: %v", err)
		}

		// Region bracket with a deliberate survivor: two throwaway
		// allocations plus one kept in a frame slot. The survivor must be
		// reported as RegionSurvivor — through the region side table. The
		// throwaways get script ids too: buffered allocation can keep them
		// alive past the settling collection, identically in both worlds.
		if err := w.th.StartRegion(); err != nil {
			t.Fatalf("StartRegion: %v", err)
		}
		w.record(w.th.New(w.node))
		w.record(w.th.New(w.node))
		w.fr.SetLocal(0, w.record(w.th.New(w.node)))
		if err := w.th.AssertAllDead(); err != nil {
			t.Fatalf("AssertAllDead: %v", err)
		}

		// Ownership: first two distinct node-class locals become an
		// owner/ownee pair. The ownee sits in a root slot outside its
		// owner's region, so UnownedOwnee must fire — through the owner
		// index and the improper dedupe table.
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
		if err := w.rt.GC(); err != nil {
			t.Fatalf("settling GC: %v", err)
		}
		w.collect(t)
	}

	want := drainSorted(mapW.diffWorld)
	got := drainSorted(denseW.diffWorld)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("assertion verdicts differ (zoned=%v):\nmap:   %v\ndense: %v",
			zoned, want, got)
	}
	wantLive := mapW.liveIDs(t)
	gotLive := denseW.liveIDs(t)
	if !reflect.DeepEqual(wantLive, gotLive) {
		t.Fatalf("live sets differ (zoned=%v):\nmap:   %v\ndense: %v",
			zoned, wantLive, gotLive)
	}
	for _, w := range worlds {
		if errs := w.rt.VerifyHeap(); len(errs) != 0 {
			t.Fatalf("heap corrupt (map=%v): %v", w == mapW, errs[0])
		}
	}

	// Footprint accounting sanity: the dense world materialized chunks and
	// reports them; the map world reports none.
	if b := denseW.rt.Stats().GC.SideTabChunkBytes; b == 0 {
		t.Error("dense world reports zero side-table chunk bytes")
	}
	if b := mapW.rt.Stats().GC.SideTabChunkBytes; b != 0 {
		t.Errorf("map world reports %d side-table chunk bytes, want 0", b)
	}
}
