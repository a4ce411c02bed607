package sidetab

import "testing"

// FuzzSideTab drives a random op stream against every table type — Bits,
// Table[uint8], Epoch32 and ShardedBits — in lockstep with reference Go
// maps, with the hazards the layout has:
//
//   - keys straddling chunk boundaries (the key byte is scaled so
//     consecutive byte values cross chunk edges);
//   - epoch rollover (the Bits, Table and shard epochs start three Clears
//     short of the uint32 wrap, so every input that clears four times
//     crosses the rollover and the zero-chunks path must preserve set/map
//     equivalence; Epoch32 has no Clear and its model persists);
//   - shard edges: ShardedBits runs over three ranges, two adjacent and
//     one beyond a gap, and half its keys are drawn from a list of range
//     edges, shard-relative chunk edges and keys outside every range.
//     Keys outside every range must be ignored by Set/Unset, absent for
//     Get and never counted by Len.
func FuzzSideTab(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{4, 4, 4, 4, 5, 6, 7, 8, 9, 10})
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)

	ranges := [][2]uint32{{2, 16386}, {16386, 20002}, {24000, 40000}}
	inRange := func(k uint32) bool {
		for _, r := range ranges {
			if k >= r[0] && k < r[1] {
				return true
			}
		}
		return false
	}
	// Range edges (first and last key of each shard, the key just past
	// it), each shard's first chunk boundary (slot base+chunkSlots), and
	// keys in no range: below the first, inside the gap, past the last.
	edges := []uint32{
		0, 2, 4, 8192, 8194, 16384, 16386, 16388,
		20000, 20002, 22000, 23998, 24000, 24002,
		32190, 32192, 39998, 40000, 1 << 31,
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		bits := NewBits()
		tab := NewTable[uint8]()
		ep := NewEpoch32()
		sb := NewShardedBits(ranges)
		bits.epoch = ^uint32(0) - 3
		tab.epoch = ^uint32(0) - 3
		for i := range sb.shards {
			sb.shards[i].bits.epoch = ^uint32(0) - 3
		}
		bitsRef := map[uint32]bool{}
		tabRef := map[uint32]uint8{}
		epRef := map[uint32]uint32{}
		sbRef := map[uint32]bool{}

		// Spread 256 key bytes across several chunks so boundary slots
		// (last of chunk d, first of chunk d+1) are exercised.
		key := func(b byte) uint32 {
			return (uint32(b) * (chunkSlots*2/32 + 2)) &^ 1
		}
		// Even bytes pick an edge key; odd bytes spread evenly over
		// [0, 44032), crossing every range and gap.
		shardKey := func(b byte) uint32 {
			if b%2 == 0 {
				return edges[int(b/2)%len(edges)]
			}
			return uint32(b/2) * 344
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, kb := data[i], data[i+1]
			k, sk := key(kb), shardKey(kb)
			switch op % 5 {
			case 0:
				fresh := bits.Set(k)
				if fresh == bitsRef[k] {
					t.Fatalf("op %d: Set(%d) fresh=%v but ref present=%v", i, k, fresh, bitsRef[k])
				}
				bitsRef[k] = true
				tab.Set(k, kb)
				tabRef[k] = kb
				ep.Set(k, uint32(kb)+1)
				epRef[k] = uint32(kb) + 1
				want := inRange(sk) && !sbRef[sk]
				if fresh := sb.Set(sk); fresh != want {
					t.Fatalf("op %d: ShardedBits.Set(%d) fresh=%v, want %v", i, sk, fresh, want)
				}
				if inRange(sk) {
					sbRef[sk] = true
				}
			case 1:
				bits.Unset(k)
				delete(bitsRef, k)
				tab.Delete(k)
				delete(tabRef, k)
				ep.Delete(k)
				delete(epRef, k)
				sb.Unset(sk)
				delete(sbRef, sk)
			case 2:
				if got, want := bits.Get(k), bitsRef[k]; got != want {
					t.Fatalf("op %d: Get(%d) = %v, want %v", i, k, got, want)
				}
				v, ok := tab.Get(k)
				wv, wok := tabRef[k]
				if ok != wok || v != wv {
					t.Fatalf("op %d: Table.Get(%d) = %d,%v want %d,%v", i, k, v, ok, wv, wok)
				}
				ev, eok := ep.Get(k)
				wev, weok := epRef[k]
				if eok != weok || ev != wev {
					t.Fatalf("op %d: Epoch32.Get(%d) = %d,%v want %d,%v", i, k, ev, eok, wev, weok)
				}
				if got, want := sb.Get(sk), sbRef[sk]; got != want {
					t.Fatalf("op %d: ShardedBits.Get(%d) = %v, want %v", i, sk, got, want)
				}
			case 3:
				bits.Clear()
				bitsRef = map[uint32]bool{}
				tab.Clear()
				tabRef = map[uint32]uint8{}
				sb.Clear()
				sbRef = map[uint32]bool{}
			case 4:
				if bits.Len() != len(bitsRef) {
					t.Fatalf("op %d: Bits.Len = %d, want %d", i, bits.Len(), len(bitsRef))
				}
				if tab.Len() != len(tabRef) {
					t.Fatalf("op %d: Table.Len = %d, want %d", i, tab.Len(), len(tabRef))
				}
				if ep.Len() != len(epRef) {
					t.Fatalf("op %d: Epoch32.Len = %d, want %d", i, ep.Len(), len(epRef))
				}
				if sb.Len() != len(sbRef) {
					t.Fatalf("op %d: ShardedBits.Len = %d, want %d", i, sb.Len(), len(sbRef))
				}
			}
		}

		// Final full sweep: Range agrees with the model exactly.
		got := map[uint32]bool{}
		bits.Range(func(k uint32) { got[k] = true })
		if len(got) != len(bitsRef) {
			t.Fatalf("final Bits.Range size %d, want %d", len(got), len(bitsRef))
		}
		for k := range bitsRef {
			if !got[k] {
				t.Fatalf("final Bits missing key %d", k)
			}
		}
		tGot := map[uint32]uint8{}
		tab.Range(func(k uint32, v uint8) bool { tGot[k] = v; return true })
		if len(tGot) != len(tabRef) {
			t.Fatalf("final Table.Range size %d, want %d", len(tGot), len(tabRef))
		}
		for k, v := range tabRef {
			if tGot[k] != v {
				t.Fatalf("final Table[%d] = %d, want %d", k, tGot[k], v)
			}
		}
		eGot := map[uint32]uint32{}
		prev, first := uint32(0), true
		ep.Range(func(k, v uint32) bool {
			if !first && k <= prev {
				t.Fatalf("final Epoch32.Range out of order: %d after %d", k, prev)
			}
			prev, first = k, false
			eGot[k] = v
			return true
		})
		if len(eGot) != len(epRef) {
			t.Fatalf("final Epoch32.Range size %d, want %d", len(eGot), len(epRef))
		}
		for k, v := range epRef {
			if eGot[k] != v {
				t.Fatalf("final Epoch32[%d] = %d, want %d", k, eGot[k], v)
			}
		}
		// ShardedBits has no Range: probe every edge and model key.
		if sb.Len() != len(sbRef) {
			t.Fatalf("final ShardedBits.Len = %d, want %d", sb.Len(), len(sbRef))
		}
		for _, k := range edges {
			if got, want := sb.Get(k), sbRef[k]; got != want {
				t.Fatalf("final ShardedBits.Get(%d) = %v, want %v", k, got, want)
			}
		}
		for k := range sbRef {
			if !sb.Get(k) {
				t.Fatalf("final ShardedBits missing key %d", k)
			}
		}
	})
}
