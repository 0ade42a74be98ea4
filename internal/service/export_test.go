package service

import fsai "repro/internal/core"

// CachedFactor returns the factor the cache holds for a solve of req on
// the matrix with fingerprint fp, or nil, without touching the cache's
// hit/miss counters or LRU order.
func (s *Server) CachedFactor(fp string, req SolveRequest) *fsai.Preconditioner {
	if normalizeSolveRequest(&req) != nil {
		return nil
	}
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	if el, ok := s.cache.items[PrecondKey(fp, &req)]; ok {
		return el.Value.(*CachedPrecond).P
	}
	return nil
}
