package main

// Seeded operation streams. The benchmark, not the program, owns every
// random choice it makes: a workload's op sequence is a pure function of
// --seed. The program receives only the generated calls.

// rng is splitmix64: tiny, seedable, and good enough to shuffle op blocks.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// op is one generated call: which operation, and its key where it takes
// one.
type op struct {
	kind int
	key  int64
}

// opMix names a workload's operations and their exact proportions.
type opMix struct {
	names   []string
	weights []int
	// key draws the key of the next op of kind; it may keep state (the
	// database's next key grows with every add).
	key func(r *rng, kind int) int64
}

// stream deals a mix's ops in shuffled blocks holding every kind exactly
// its weight times, so every block of sum(weights) ops has the mix's exact
// ratio and only the order within a block depends on the seed.
type stream struct {
	r     *rng
	mix   opMix
	block []int
	pos   int
}

func newStream(seed uint64, mix opMix) *stream {
	s := &stream{r: newRNG(seed), mix: mix}
	for kind, w := range mix.weights {
		for i := 0; i < w; i++ {
			s.block = append(s.block, kind)
		}
	}
	s.pos = len(s.block)
	return s
}

func (s *stream) next() op {
	if s.pos == len(s.block) {
		for i := len(s.block) - 1; i > 0; i-- {
			j := s.r.intn(i + 1)
			s.block[i], s.block[j] = s.block[j], s.block[i]
		}
		s.pos = 0
	}
	kind := s.block[s.pos]
	s.pos++
	o := op{kind: kind}
	if s.mix.key != nil {
		o.key = s.mix.key(s.r, kind)
	}
	return o
}

// growingKeys draws lookup keys uniformly from [0, next], where next starts
// at initial and grows by one with every op of kind add — the database's
// own key sequence, so lookups hit live, removed and not-yet-added keys
// in the proportions the original's RunOps produces.
func growingKeys(initial int64, add, lookup int) func(r *rng, kind int) int64 {
	next := initial
	return func(r *rng, kind int) int64 {
		switch kind {
		case add:
			next++
		case lookup:
			return int64(r.intn(int(next) + 1))
		}
		return 0
	}
}
