// Package vmheap implements the managed heap that the gcassert runtime
// allocates objects into.
//
// The heap is a single contiguous arena of 64-bit words. An object is a run
// of words beginning with a one-word header; a Ref is the word index of that
// header. All objects are aligned to two-word boundaries, which keeps the
// low-order bit of every Ref free — the tracing code uses that bit to tag
// worklist entries for path reconstruction, exactly as the paper does with
// word-aligned Jikes RVM references.
//
// The header packs flag bits, an object kind, a class identifier and the
// object size. Three of the flag bits are the "spare header bits" the paper
// stores assertion state in: the dead bit (assert-dead), the unshared bit
// (assert-unshared) and the owned bit (set by the ownership phase of the
// collector for assert-ownedby).
package vmheap

// Ref is a reference to a heap object: the word index of its header within
// the arena. The zero Ref is the null reference; no object is ever allocated
// at index 0. Because objects are two-word aligned, valid Refs are always
// even.
type Ref uint32

// Nil is the null reference.
const Nil Ref = 0

// Kind describes the physical layout of an object.
type Kind uint8

const (
	// KindScalar is an ordinary object: header followed by fixed fields.
	KindScalar Kind = iota
	// KindRefArray is an array of references: header, length word, elements.
	KindRefArray
	// KindDataArray is an array of non-reference data words: header,
	// length word, elements.
	KindDataArray
)

// Header flag bits. The mark bit is the collector's ordinary trace mark.
// Dead, Unshared and Owned are the assertion bits described in the paper.
// Free tags free-list chunks so that a linear sweep can parse the heap.
const (
	FlagMark     uint64 = 1 << 0 // reached during the current trace
	FlagDead     uint64 = 1 << 1 // assert-dead was called on this object
	FlagUnshared uint64 = 1 << 2 // assert-unshared was called on this object
	FlagOwned    uint64 = 1 << 3 // reached from its owner this cycle
	FlagFree     uint64 = 1 << 4 // this is a free chunk, not an object
	FlagMature   uint64 = 1 << 5 // survived a collection (generational)
	FlagRemember uint64 = 1 << 6 // present in the remembered set

	// FlagScanned is only used during an incremental collection cycle: the
	// object's reference slots have been processed (by a mark slice, the
	// ownership pre-phase, or the snapshot-at-beginning write barrier)
	// while they still held their snapshot values. The first mutator write
	// to an object without this bit triggers the barrier scan; the sweep
	// that completes the cycle clears it. Bits 7 and 10 are FlagOwnee and
	// FlagOwner (ownee.go).
	FlagScanned uint64 = 1 << 11

	// FlagZoneSrc marks an object that has (or once had) a reference field
	// pointing into another zone, i.e. it appears as the source of at least
	// one cross-zone remembered-set entry. The free observer installed by
	// the zoned runtime uses it to skip remset purging for the overwhelming
	// majority of freed objects that never stored a cross-zone reference.
	// The bit is set by the remset barrier and never cleared while the
	// object lives (purging is idempotent, so staleness is harmless).
	FlagZoneSrc uint64 = 1 << 12
)

const (
	kindShift  = 8
	kindMask   = 0x3
	classShift = 16
	classMask  = 0xFFFFFF // 24 bits
	sizeShift  = 40
	sizeMask   = 0xFFFFFF // 24 bits

	// MaxClassID is the largest class identifier a header can store.
	MaxClassID = classMask
	// MaxObjectWords is the largest object size, in words, a header can
	// store (16M words = 128 MB).
	MaxObjectWords = sizeMask
)

// makeHeader assembles a header word with no flags set.
func makeHeader(kind Kind, classID uint32, sizeWords uint32) uint64 {
	return uint64(kind)<<kindShift |
		uint64(classID&classMask)<<classShift |
		uint64(sizeWords&sizeMask)<<sizeShift
}

// headerKind extracts the object kind from a header word.
func headerKind(h uint64) Kind { return Kind(h >> kindShift & kindMask) }

// headerClass extracts the class identifier from a header word.
func headerClass(h uint64) uint32 { return uint32(h >> classShift & classMask) }

// headerSize extracts the object size in words from a header word.
func headerSize(h uint64) uint32 { return uint32(h >> sizeShift & sizeMask) }

// align2 rounds n up to the next multiple of two.
func align2(n uint32) uint32 { return (n + 1) &^ 1 }

// DecodeClassID extracts the class identifier from a header word.
func DecodeClassID(header uint64) uint32 { return headerClass(header) }

// DecodeSizeWords extracts the object size in words from a header word.
func DecodeSizeWords(header uint64) uint32 { return headerSize(header) }
