package cluster

import (
	"maps"

	"repro/internal/service"
)

// Catalog records fp as registered under name, as a routed registration
// every owner accepted would, without contacting a shard.
func (rt *Router) Catalog(fp, name string) {
	rt.catalog(fp, service.MatrixInfo{Fingerprint: fp, Name: name}, registration{name: name})
}

// Aliases returns the alias → fingerprint map the router resolves
// references with.
func (rt *Router) Aliases() map[string]string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return maps.Clone(rt.names)
}
