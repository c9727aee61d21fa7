package core

// SecondaryLen returns the number of rows secondary index name holds.
func (s *Server) SecondaryLen(name string) int {
	s.secMu.RLock()
	si, ok := s.secondary[name]
	s.secMu.RUnlock()
	if !ok {
		return 0
	}
	si.mu.RLock()
	defer si.mu.RUnlock()
	return si.tree.Len()
}
