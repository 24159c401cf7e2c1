package core

// IdleScratches is the number of build scratches on s's free list.
func IdleScratches(s *System) int {
	s.scratchMu.Lock()
	defer s.scratchMu.Unlock()
	return s.scratch.Len()
}
