package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"reflect"
	"testing"
	"time"

	"repro/internal/matgen"
)

// FuzzDecodeRegisterRequest feeds arbitrary bodies to the registration
// handler's decode step. It must never panic, and it accepts a body only if
// the body names a known matgen spec and holds nothing but whitespace after
// the object.
func FuzzDecodeRegisterRequest(f *testing.F) {
	for _, seed := range []string{
		`{"matgen":"lap64x64"}`,
		`{"matgen":"lap64x64","name":"lap"}`,
		"{\"matgen\":\"jump64x64-b8-j1e3\"}\r\n\t ",
		`{"matgen":"lap64x64"} xyz`,
		`{"matgen":"lap64x64"} {"matgen":"lap64x64"}`,
		`{"matgen":"no-such-spec"}`,
		`{"MATGEN":"lap64x64","name":7}`,
		``, `null`, `[]`, `{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, spec, err := parseRegisterRequest(body)
		if err != nil {
			return
		}
		if known, ok := matgen.ByName(req.Matgen); !ok || spec.Name != known.Name {
			t.Fatalf("accepted matgen %q, resolved to %q", req.Matgen, spec.Name)
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		var first RegisterRequest
		if err := dec.Decode(&first); err != nil || first != req {
			t.Fatalf("first object %+v (err %v), want %+v", first, err, req)
		}
		if rest := bytes.Trim(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
			t.Fatalf("accepted %q after the object", rest)
		}
	})
}

// FuzzDecodeSolveRequest feeds arbitrary bodies to the solve handler's
// decode-and-normalize step. It must never panic; every request it accepts
// has in-range knobs and comes out of json.Marshal and a second decode
// unchanged, so a normalized request is a fixed point on the wire. Every
// body the fast path accepts, json.Unmarshal accepts too, and decodes to
// the same request, floats compared by their bits.
func FuzzDecodeSolveRequest(f *testing.F) {
	for _, seed := range []string{
		`{"matrix":"lap"}`,
		`{"matrix":"lap","precond":"fsai","filter":-1,"line_bytes":1024,"pattern_power":3,"rhs":[1,-0,2.5e-300]}`,
		`{"matrix":"lap","filter":-0.5,"rhs":[]}`,
		`{"matrix":"lap","line_bytes":4}`,
		`{"matrix":"lap","pattern_power":40,"timeout_ms":2000}`,
		`{"matrix":"lap","timeout_ms":9223372036854}`,
		`{"matrix":"lap","timeout_ms":9223372036855}`,
		`{"matrix":"lap","timeout_ms":-9223372036854775808}`,
		`{"matrix":"lap"} {"matrix":"lap"}`,
		`{"matrix":"lap","precond":"fsaie","setup_only":true,"tau":1e-3}`,
		`{"matrix":"lap","precond":"fsai","resilient":true,"tol":-1,"max_iter":-5}`,
		`{"MATRIX":"é","hold_ms":-3}`,
		``, `null`, `[]`, `{"matrix":1}`,
		`{"matrix":"l\u0061p","precond":"fs\"ai"}`,
		`{"MATRIX":"lap"}`,
		`{"matrix":"lap","colour":"blue"}`,
		`{"matrix":"lap","rhs":null}`,
		`{"matrix":"lap","rhs":[]}`,
		`{"matrix":"lap","rhs":[1,2,3],"rhs":[-4.5e-7]}`,
		`{"matrix":"lap","tol":1e400}`,
		`{"matrix":"lap","rhs":[1,1e400]}`,
		`{"matrix":"lap","max_iter":1e3}`,
		`{"matrix":"lap","rhs":[0.5]}]`,
		"{\"matrix\":\"l\xffp\"}",
		`{"matrix":"матрица","precond":null,"resilient":false,"hold_ms":null}`,
		"\t{ \"matrix\" : \"lap\" , \"precond\":\"fsaie\",\"filter\":0.01,\"line_bytes\":64,\"pattern_power\":1," +
			"\"tau\":0,\"tol\":1E-8,\"max_iter\":100,\"resilient\":false,\"timeout_ms\":5000," +
			"\"rhs\":[ 0.25 ,-1e+2,\r\n3.5E-5 ],\"return_solution\":true,\"hold_ms\":0,\"setup_only\":false}\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if fast, ok := decodeSolveFast(body); ok {
			var ref SolveRequest
			if err := json.Unmarshal(body, &ref); err != nil {
				t.Fatalf("fast path accepted %q, encoding/json refuses it: %v", body, err)
			}
			if !sameRequest(fast, ref) {
				t.Fatalf("fast path and encoding/json disagree on %q:\n fast %+v\n json %+v", body, fast, ref)
			}
		}
		req, err := parseSolveRequest(body)
		if err != nil {
			return
		}
		if lb := req.LineBytes; lb < 8 || lb > 1024 || lb&(lb-1) != 0 {
			t.Fatalf("accepted line_bytes %d", lb)
		}
		if req.PatternPower < 1 || req.PatternPower > 3 {
			t.Fatalf("accepted pattern_power %d", req.PatternPower)
		}
		if ms := req.TimeoutMS; ms > 0 && time.Duration(ms)*time.Millisecond/time.Millisecond != time.Duration(ms) {
			t.Fatalf("accepted timeout_ms %d, which overflows a time.Duration", ms)
		}
		if req.Matrix == "" || req.Precond == "" || req.Tol <= 0 || req.MaxIter <= 0 ||
			(req.Filter <= 0 && req.Filter != -1) {
			t.Fatalf("accepted request with unnormalized fields: %+v", req)
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal accepted request: %v", err)
		}
		again, err := parseSolveRequest(wire)
		if err != nil {
			t.Fatalf("second decode of %s: %v", wire, err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip changed the request:\n first %+v\nsecond %+v", req, again)
		}
	})
}

// FuzzDeadlineHeader: parseDeadlineMS accepts a value exactly when it is a
// base-10 integer with 0 < ms <= MaxInt64/1e6, and then returns that many
// milliseconds. The oracle parses with math/big, which cannot overflow.
func FuzzDeadlineHeader(f *testing.F) {
	for _, seed := range []string{"1", "250", "0", "-5", "+7", "007", "soon", " 5", "1e3", "",
		"9223372036854", "9223372036855", "9300000000000", "99999999999999999999"} {
		f.Add(seed)
	}
	limit := big.NewInt(math.MaxInt64 / int64(time.Millisecond))
	f.Fuzz(func(t *testing.T, h string) {
		d, ok := parseDeadlineMS(h)
		ms, isInt := new(big.Int).SetString(h, 10)
		want := isInt && ms.Sign() > 0 && ms.Cmp(limit) <= 0
		if ok != want {
			t.Fatalf("parseDeadlineMS(%q) accepted=%v, want %v", h, ok, want)
		}
		if ok && d != time.Duration(ms.Int64())*time.Millisecond {
			t.Fatalf("parseDeadlineMS(%q) = %v, want %s ms", h, d, ms)
		}
	})
}
