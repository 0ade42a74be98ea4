package service

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// clientSolveBody is a solve body as fsaid's Go clients send it: a
// fingerprint, FSAIE at filter 0.01, the solution requested, and n
// right-hand-side values drawn as the benchmark draws them (uniform in
// [-1, 1] over the matrix's max-norm, 8 for lap64x64).
func clientSolveBody(tb testing.TB, n int) []byte {
	rng := rand.New(rand.NewSource(1))
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = (2*rng.Float64() - 1) / 8
	}
	body, err := json.Marshal(SolveRequest{Matrix: strings.Repeat("5e", 32), Precond: "fsaie",
		Filter: 0.01, RHS: rhs, ReturnSolution: true})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// sameRequest reports whether a and b are the same request, comparing
// floats by their bits and telling a nil rhs from an empty one.
func sameRequest(a, b SolveRequest) bool {
	if (a.RHS == nil) != (b.RHS == nil) || len(a.RHS) != len(b.RHS) {
		return false
	}
	for i := range a.RHS {
		if math.Float64bits(a.RHS[i]) != math.Float64bits(b.RHS[i]) {
			return false
		}
	}
	for _, f := range [][2]float64{{a.Filter, b.Filter}, {a.Tau, b.Tau}, {a.Tol, b.Tol}} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return false
		}
	}
	a.RHS, a.Filter, a.Tau, a.Tol = nil, 0, 0, 0
	b.RHS, b.Filter, b.Tau, b.Tol = nil, 0, 0, 0
	return reflect.DeepEqual(a, b)
}

// TestParseSolveRequestAllocs: a client's 4,096-value body takes the fast
// path, decodes to encoding/json's request and costs at most 4
// allocations (the right-hand side and the two strings). A malformed rhs
// array is refused before anything is allocated for it: 8 MiB of commas,
// or 8 MiB of "0," whose last comma has no value after it, cost under
// 1 MiB, where presizing from a comma count would take 32–64 MiB first.
func TestParseSolveRequestAllocs(t *testing.T) {
	body := clientSolveBody(t, 4096)
	fast, ok := decodeSolveFast(body)
	if !ok {
		t.Fatal("a client's body fell back to encoding/json")
	}
	var ref SolveRequest
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatal(err)
	}
	if !sameRequest(fast, ref) {
		t.Fatalf("fast path and encoding/json disagree:\n fast %+v\n json %+v", fast, ref)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := parseSolveRequest(body); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Errorf("a 4,096-value body took %.0f allocations, want at most 4", allocs)
	}

	for name, rhs := range map[string]string{
		"commas":       strings.Repeat(",", 8<<20),
		"stray-comma":  strings.Repeat("0,", 4<<20),
		"leading-zero": strings.Repeat("0,", 4<<20-1) + "01",
	} {
		bad := []byte(`{"matrix":"lap","rhs":[` + rhs + `]}`)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := parseSolveRequest(bad)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted a malformed rhs", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: refusing the body allocated %d bytes, want under 1 MiB", name, got)
		}
	}
}

// BenchmarkParseSolveRequest decodes a client's 4,096-value solve body
// (about 80 KiB), as fsaid's decode stage does on every warm request,
// beside json.Unmarshal and normalization of the same body.
func BenchmarkParseSolveRequest(b *testing.B) {
	body := clientSolveBody(b, 4096)
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			if _, err := parseSolveRequest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var req SolveRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
			if err := normalizeSolveRequest(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
