package model

// TaskBits is a dense set of task IDs, one bit per ID. Task IDs are dense
// indexes into an instance's registry, so the set costs len(Tasks)/8 bytes
// and a lookup is a shift and a mask instead of a hash.
type TaskBits []uint64

// Has reports whether id is in the set. IDs beyond the set's size, and
// negative IDs, are absent.
func (s TaskBits) Has(id TaskID) bool {
	w := uint(id) >> 6
	return w < uint(len(s)) && s[w]&(1<<(uint(id)&63)) != 0
}

// Grow makes room for every ID below n, so Add on such an ID never
// allocates. Growth is amortised like append's.
func (s *TaskBits) Grow(n int) {
	if words := (n + 63) >> 6; words > len(*s) {
		*s = append(*s, make(TaskBits, words-len(*s))...)
	}
}

// Add inserts id, growing the set when id lies beyond it. id must be
// non-negative.
func (s *TaskBits) Add(id TaskID) {
	s.Grow(int(id) + 1)
	(*s)[id>>6] |= 1 << (uint(id) & 63)
}
