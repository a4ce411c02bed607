// Package staleness implements a miniature staleness-based leak detector
// in the style of SWAT (Chilimbi and Hauswirth, ASPLOS 2004) and Bell
// (Bond and McKinley, ASPLOS 2006) — the heuristic baselines the paper
// contrasts GC assertions against: "objects that have not been accessed in
// a long time are probably memory leaks... These techniques, however, can
// only suggest potential leaks, which the programmer must then examine
// manually."
//
// The application reports accesses through Touch (the analog of SWAT's
// sampled read barrier); Advance, called after each collection, ages every
// live object and drops reclaimed ones. Stale returns the live objects
// idle past the threshold — a list that famously includes cold-but-needed
// data (false positives), which the contrast tests demonstrate against the
// assertion-based diagnosis of the same heap.
//
// Touch is the profiler's hot path — it runs on every recorded access —
// so the last-access table is a dense arena-indexed side table
// (internal/sidetab): an array store per Touch instead of a map write,
// and an Advance that reuses one scratch table instead of rebuilding a
// live map per collection (zero steady-state allocation).
package staleness

import (
	"sort"

	"repro/internal/core"
	"repro/internal/sidetab"
)

// Tracker tracks last-access epochs per live object.
type Tracker struct {
	// Threshold is the number of epochs (collections) an object must go
	// untouched to be reported (default 3).
	Threshold uint64

	epoch uint64

	// tab[r] = last-access epoch + 1 (the +1 bias keeps epoch 0
	// representable; 0 means untracked). Stamps are uint32, so the
	// tracker supports 2^32-2 Advances — epochs beyond that would alias.
	// scratch is the per-Advance live set, cleared by epoch bump.
	tab     *sidetab.Epoch32
	scratch *sidetab.Bits

	// advRT caches the runtime the stamp closure is bound to, so
	// steady-state Advances reuse one closure and allocate nothing.
	advRT   *core.Runtime
	stampFn func(core.Ref)
	pruneFn func(uint32, uint32) bool
}

// New creates a tracker backed by dense side tables.
func New(threshold uint64) *Tracker {
	if threshold == 0 {
		threshold = 3
	}
	return &Tracker{
		Threshold: threshold,
		tab:       sidetab.NewEpoch32(),
		scratch:   sidetab.NewBits(),
	}
}

// Touch records an access to r — call it wherever the application reads or
// writes the object (SWAT samples these; we record them all).
func (t *Tracker) Touch(r core.Ref) {
	if r == core.Nil {
		return
	}
	t.tab.Set(uint32(r), uint32(t.epoch)+1)
}

// Advance ages the tracker by one collection: call it right after a full
// GC. Reclaimed objects leave the table (their refs may be recycled);
// never-seen live objects enter it with the current epoch as their
// baseline. It does one heap walk into a reusable scratch table and prunes
// against it — after the first call for a runtime it allocates nothing
// (the steady-state assertion in its test pins this).
func (t *Tracker) Advance(rt *core.Runtime) {
	t.epoch++
	t.scratch.Clear()
	if t.advRT != rt || t.stampFn == nil {
		t.advRT = rt
		t.stampFn = func(r core.Ref) {
			t.scratch.Set(uint32(r))
			if _, ok := t.tab.Get(uint32(r)); !ok {
				t.tab.Set(uint32(r), uint32(t.epoch)+1)
			}
		}
		t.pruneFn = func(key, _ uint32) bool {
			if !t.scratch.Get(key) {
				t.tab.Delete(key)
			}
			return true
		}
	}
	rt.Objects(t.stampFn)
	t.tab.Range(t.pruneFn)
}

// StaleObject is one suspect.
type StaleObject struct {
	Ref        core.Ref
	Class      string
	IdleEpochs uint64
}

// Stale returns the live objects idle for at least Threshold epochs,
// most-stale first. Note what this is: a heuristic suspect list. Cold but
// perfectly live data lands here too.
func (t *Tracker) Stale(rt *core.Runtime) []StaleObject {
	var out []StaleObject
	t.tab.Range(func(key, v uint32) bool {
		if idle := t.epoch - (uint64(v) - 1); idle >= t.Threshold {
			out = append(out, StaleObject{
				Ref:        core.Ref(key),
				Class:      rt.ClassOf(core.Ref(key)).Name,
				IdleEpochs: idle,
			})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].IdleEpochs != out[j].IdleEpochs {
			return out[i].IdleEpochs > out[j].IdleEpochs
		}
		return out[i].Ref < out[j].Ref
	})
	return out
}

// Tracked returns the current table size (tools and tests).
func (t *Tracker) Tracked() int { return t.tab.Len() }
