// HTTP surface of the continuous profiler (internal/prof): a JSON index of
// captured windows, per-window metadata, and raw .pb.gz downloads for
// `go tool pprof` (`-tags` gives the per-job/per-phase CPU attribution).
package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/prof"
)

// profilesIndex is the GET /profiles payload.
type profilesIndex struct {
	Enabled     bool           `json:"enabled"`
	WindowNS    int64          `json:"window_ns,omitempty"`
	GapNS       int64          `json:"gap_ns,omitempty"`
	Capacity    int            `json:"capacity,omitempty"`
	OverheadPct float64        `json:"overhead_pct"`
	Windows     []*prof.Window `json:"windows"`
}

func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	idx := profilesIndex{Windows: []*prof.Window{}}
	if sp := s.opt.Profiles; sp != nil {
		idx.Enabled = true
		o := sp.Opts()
		idx.WindowNS = int64(o.Window)
		idx.GapNS = int64(o.Gap)
		idx.Capacity = o.Capacity
		idx.OverheadPct = sp.MeasuredOverheadPct()
		idx.Windows = sp.Windows()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(idx)
}

// profileDetail is the GET /profiles/<id> payload.
type profileDetail struct {
	Window *prof.Window `json:"window"`
}

// handleProfileByID serves /profiles/<id> (JSON window metadata) and
// /profiles/<id>/{cpu,heap,goroutine} (raw gzipped pprof protos).
func (s *Server) handleProfileByID(w http.ResponseWriter, r *http.Request) {
	sp := s.opt.Profiles
	if sp == nil {
		http.NotFound(w, r)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/profiles/")
	idStr, kind, _ := strings.Cut(rest, "/")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	win := sp.Window(id)
	if win == nil {
		http.NotFound(w, r)
		return
	}
	if kind != "" {
		var raw []byte
		switch kind {
		case "cpu":
			raw = win.CPU
		case "heap":
			raw = win.Heap
		case "goroutine":
			raw = win.Goroutine
		default:
			http.NotFound(w, r)
			return
		}
		if len(raw) == 0 {
			http.Error(w, fmt.Sprintf("window %d has no %s profile", id, kind), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf(`attachment; filename="window-%d-%s.pb.gz"`, id, kind))
		_, _ = w.Write(raw)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(profileDetail{Window: win})
}

// handleRoofline serves the live roofline summary.
func (s *Server) handleRoofline(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.opt.Roofline.Report())
}
