package obs

import (
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
)

// VersionInfo is the GET /version document: what binary this process runs.
// The cluster router probes it during rolling upgrades to verify a shard
// speaks the same module before routing traffic to it.
type VersionInfo struct {
	// Module is the main module path ("repro"); Version its module version
	// ("(devel)" for local builds).
	Module  string `json:"module"`
	Version string `json:"version,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Revision / Modified are the VCS stamp when the build carried one.
	Revision string `json:"revision,omitempty"`
	Modified bool   `json:"modified,omitempty"`
}

var (
	versionOnce sync.Once
	versionInfo VersionInfo
)

// Version returns this process's build info, computed once via
// runtime/debug.ReadBuildInfo. Binaries built without module support (unit
// tests under some configurations) still report the Go version.
func Version() VersionInfo {
	versionOnce.Do(func() {
		versionInfo = VersionInfo{GoVersion: runtime.Version()}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		versionInfo.Module = bi.Main.Path
		versionInfo.Version = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				versionInfo.Revision = s.Value
			case "vcs.modified":
				versionInfo.Modified = s.Value == "true"
			}
		}
	})
	return versionInfo
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(Version())
}

// handleCluster serves the router's topology document when this server
// fronts a cluster (Options.Cluster); plain shards answer 404 — the route
// exists only where a fleet does.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.opt.Cluster == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.opt.Cluster.Topology(r.Context()))
}
