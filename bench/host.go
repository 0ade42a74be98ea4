package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/parallel"
)

// llcBytes returns the size of cpu0's highest-level cache from sysfs.
func llcBytes() (int64, error) {
	dirs, err := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	if err != nil || len(dirs) == 0 {
		return 0, fmt.Errorf("no cache information in sysfs")
	}
	var level, size int64
	for _, d := range dirs {
		l, err1 := readInt(filepath.Join(d, "level"))
		s, err2 := readCacheSize(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		if l > level || (l == level && s > size) {
			level, size = l, s
		}
	}
	if size == 0 {
		return 0, fmt.Errorf("no readable cache size in sysfs")
	}
	return size, nil
}

func readInt(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
}

// readCacheSize parses a sysfs cache size such as "107520K".
func readCacheSize(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	s := strings.TrimSpace(string(b))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	return v * mult, err
}

// triadResult is what the triad child process prints.
type triadResult struct {
	GBs float64 `json:"gbs"`
}

// hostRoof measures the host's sustainable memory bandwidth with a
// STREAM-triad probe whose three arrays are each 4× the last-level cache
// (or arrayMiB, when positive). The probe runs in a child process so its
// arrays never count towards this process's peak RSS.
func hostRoof(rep *report, arrayMiB int) error {
	llc, err := llcBytes()
	if err != nil {
		return err
	}
	if arrayMiB <= 0 {
		arrayMiB = int((4*llc + 1<<20 - 1) >> 20)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "triad", strconv.Itoa(arrayMiB))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("triad probe: %w", err)
	}
	var res triadResult
	if err := json.Unmarshal(bytes.TrimSpace(out), &res); err != nil {
		return fmt.Errorf("triad probe output: %w", err)
	}
	rep.set("host.triad_gbs", "GB/s", res.GBs)
	rep.set("host.llc_mib", "MiB", float64(llc)/(1<<20))
	rep.set("host.triad_array_mib", "MiB", float64(arrayMiB))
	return nil
}

// runTriad is the child side of hostRoof: a[i] = b[i] + s·c[i] over arrays
// of arrayMiB each, split across all CPUs, best of five passes. Bytes
// follow the STREAM convention of 24 per element (two reads, one write).
func runTriad(arrayMiB int) error {
	n := arrayMiB << 20 / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	parallel.For(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 0, 1, 2
		}
	})
	best := time.Duration(1<<63 - 1)
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		parallel.For(n, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a[i] = b[i] + 3*c[i]
			}
		})
		best = min(best, time.Since(t0))
	}
	if a[n-1] != 7 {
		return fmt.Errorf("triad computed %g, want 7", a[n-1])
	}
	return json.NewEncoder(os.Stdout).Encode(triadResult{GBs: 24 * float64(n) / best.Seconds() / 1e9})
}

// selfPeakRSSMiB is this process's peak resident set size.
func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procStatus returns a field of /proc/<pid>/status in KiB, e.g. "VmHWM".
func procStatus(pid int, field string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}

// procCPU returns the user plus system CPU time of pid so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall, in clock ticks of 1/100 s.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}
