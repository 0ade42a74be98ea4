package cluster

import "maps"

// Owners returns the shards a key places on, primary first.
func (rt *Router) Owners(fp string) []string { return rt.owners(fp) }

// Refs returns the reference → fingerprint cache the router resolves
// matrix references with.
func (rt *Router) Refs() map[string]string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return maps.Clone(rt.refs)
}
