package core

import "repro/internal/vmheap"

// Debug introspection used by the differential tests (two runtimes that
// differ only in sweep or allocation mode must leave behind identical
// heaps) and available to tools.

// LiveObject describes one allocated object in a LiveSet dump.
type LiveObject struct {
	Ref   Ref
	Class string
	Words uint32
}

// LiveSet returns every allocated object in ascending address order.
func (rt *Runtime) LiveSet() []LiveObject {
	rt.lockWorld()
	defer rt.unlockWorld()
	rt.flushAllocBuffers()
	var out []LiveObject
	rt.heap.Iterate(func(r vmheap.Ref, hd uint64) {
		out = append(out, LiveObject{
			Ref:   r,
			Class: rt.reg.Name(vmheap.DecodeClassID(hd)),
			Words: vmheap.DecodeSizeWords(hd),
		})
	})
	return out
}

// HeaderFlags returns the raw header flag bits of the object at r (see
// vmheap's Flag constants). Tool-grade: tests use it to observe assertion
// bits (dead, unshared, ownee) and collection bits (mark, scanned) directly.
func (rt *Runtime) HeaderFlags(r Ref) uint64 {
	rt.lockWorld()
	defer rt.unlockWorld()
	return rt.heap.Flags(r, ^uint64(0))
}

// FreeChunks returns the heap's free-list contents in the allocator's
// deterministic bin order. A pending lazy sweep is completed first so the
// observation reflects the settled heap.
func (rt *Runtime) FreeChunks() []vmheap.FreeChunk {
	rt.lockWorld()
	defer rt.unlockWorld()
	rt.flushAllocBuffers()
	return rt.heap.FreeChunks()
}

// SetDebugChecks toggles the heap's free-list integrity verification,
// which then runs after every sweep pass (serial, parallel merge, lazy
// completion) and panics on the first violation. Process-wide; the sweep
// differential and fuzz tests enable it so every sweep self-checks.
func SetDebugChecks(on bool) { vmheap.DebugChecks = on }

// CheckFreeLists runs the free-list integrity checks once, returning all
// violations found (nil for healthy lists) regardless of the SetDebugChecks
// toggle.
func (rt *Runtime) CheckFreeLists() []error {
	rt.lockWorld()
	defer rt.unlockWorld()
	return rt.heap.CheckFreeLists()
}
