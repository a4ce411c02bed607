package vmheap

import "sync/atomic"

// Atomic reference-slot access for concurrent zone collection. The trace
// loop's Force-nulling (internal/trace) and the zoned runtime's field loads
// and stores (internal/core/fields.go) go through these accessors. While
// zone collections overlap with mutators in other zones, a slot word can be
// read by one zone's tracer (an in-zone field scan), written by another
// zone's tracer (a Force-verdict null through a remembered-set slot), and
// read by a mutator loading a cross-zone field — with only per-zone locks
// held, not a common one. Those particular pairs never include two plain
// accesses (the zone-lock rules serialize every mutator *write* against
// every reader of the same slot), but the reads and the Force-null store
// must be atomic so the remaining concurrent pairs are race-free. Data
// words never appear in remembered sets and stay plain everywhere.

// RefAtAtomic is RefAt with an atomic load.
func (h *Heap) RefAtAtomic(r Ref, i uint32) Ref {
	return Ref(atomic.LoadUint64(&h.words[uint32(r)+i]))
}

// SetRefAtAtomic is SetRefAt with an atomic store.
func (h *Heap) SetRefAtAtomic(r Ref, i uint32, v Ref) {
	atomic.StoreUint64(&h.words[uint32(r)+i], uint64(v))
}

// ArrayWordAtomic is ArrayWord with an atomic load.
func (h *Heap) ArrayWordAtomic(r Ref, i uint32) uint64 {
	return atomic.LoadUint64(&h.words[uint32(r)+arrayHeaderWords+i])
}

// SetArrayWordAtomic is SetArrayWord with an atomic store.
func (h *Heap) SetArrayWordAtomic(r Ref, i uint32, v uint64) {
	atomic.StoreUint64(&h.words[uint32(r)+arrayHeaderWords+i], v)
}

// SlotRefAtomic is SlotRef with an atomic load.
func (h *Heap) SlotRefAtomic(i uint32) Ref {
	return Ref(atomic.LoadUint64(&h.words[i]))
}

// SetSlotRefAtomic is SetSlotRef with an atomic store.
func (h *Heap) SetSlotRefAtomic(i uint32, v Ref) {
	atomic.StoreUint64(&h.words[i], uint64(v))
}
