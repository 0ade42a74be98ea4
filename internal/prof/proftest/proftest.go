// Package proftest checks captured pprof profiles with the toolchain's own
// reader, `go tool pprof`, so tests need no profile decoder of their own.
// A missing toolchain fails the test rather than skipping it: the label
// attribution these checks prove must not go silently untested.
package proftest

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Tags returns the label values per label key of a gzipped pprof profile,
// as `go tool pprof -tags` reports them (heaviest value first).
func Tags(t testing.TB, profile []byte) map[string][]string {
	t.Helper()
	tags := map[string][]string{}
	key := ""
	for _, line := range strings.Split(pprof(t, "-tags", profile), "\n") {
		// Key lines read "job_id: Total 1.2s"; value lines
		// "1.1s (91.67%): j-000042".
		if f := strings.Fields(line); len(f) == 3 && f[1] == "Total" && strings.HasSuffix(f[0], ":") {
			key = strings.TrimSuffix(f[0], ":")
		} else if _, v, ok := strings.Cut(line, "%): "); ok && key != "" {
			tags[key] = append(tags[key], strings.TrimSpace(v))
		}
	}
	return tags
}

// Raw fails t unless `go tool pprof -raw` reads the profile.
func Raw(t testing.TB, profile []byte) {
	t.Helper()
	pprof(t, "-raw", profile)
}

// pprof writes the profile to a temp file, runs `go tool pprof <flag>` on it
// and returns stdout; a non-zero exit fails t with the tool's stderr.
func pprof(t testing.TB, flag string, profile []byte) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("proftest: go toolchain not on PATH: %v", err)
	}
	path := filepath.Join(t.TempDir(), "profile.pb.gz")
	if err := os.WriteFile(path, profile, 0o600); err != nil {
		t.Fatalf("proftest: %v", err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(goBin, "tool", "pprof", "-symbolize=none", flag, path)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("proftest: go tool pprof %s: %v\n%s", flag, err, stderr.Bytes())
	}
	return stdout.String()
}
