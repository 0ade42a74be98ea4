package trace

import (
	"context"
	"strings"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/telemetry"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

func TestNewContextIsValidAndUnique(t *testing.T) {
	a, b := New(), New()
	if !a.Valid() || !b.Valid() {
		t.Fatalf("fresh contexts must be valid: %+v %+v", a, b)
	}
	if a.TraceID == b.TraceID || a.SpanID == b.SpanID {
		t.Fatalf("two fresh contexts collided: %+v vs %+v", a, b)
	}
	if len(a.TraceID) != 32 || len(a.SpanID) != 16 {
		t.Fatalf("W3C sizes violated: trace %d span %d", len(a.TraceID), len(a.SpanID))
	}
}

func TestChildKeepsTraceFreshSpan(t *testing.T) {
	a := New()
	c := a.Child()
	if c.TraceID != a.TraceID {
		t.Fatalf("child changed trace id: %s vs %s", c.TraceID, a.TraceID)
	}
	if c.SpanID == a.SpanID {
		t.Fatal("child must get a fresh span id")
	}
	if !c.Valid() {
		t.Fatalf("child invalid: %+v", c)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	a := New()
	h := a.Traceparent()
	if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("unexpected traceparent shape %q", h)
	}
	got, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	if got != a {
		t.Fatalf("round trip changed identifiers: %+v vs %+v", got, a)
	}
}

func TestParseTraceparentAcceptsSurroundingSpace(t *testing.T) {
	a := New()
	got, err := ParseTraceparent("  " + a.Traceparent() + " ")
	if err != nil || got != a {
		t.Fatalf("trimmed parse: got %+v err %v", got, err)
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	a := New()
	h := "cc-" + a.TraceID + "-" + a.SpanID + "-01-extrafield"
	got, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("future versions with extra fields must parse: %v", err)
	}
	if got != a {
		t.Fatalf("wrong identifiers from future version: %+v", got)
	}
}

// malformedTraceparents is the table of headers ParseTraceparent must
// reject, built around the identifiers of valid.
func malformedTraceparents(valid Context) map[string]string {
	return map[string]string{
		"empty":              "",
		"too few fields":     "00-abc",
		"bad version hex":    "zz-" + valid.TraceID + "-" + valid.SpanID + "-01",
		"forbidden ff":       "ff-" + valid.TraceID + "-" + valid.SpanID + "-01",
		"v00 extra field":    valid.Traceparent() + "-junk",
		"short trace id":     "00-abcd-" + valid.SpanID + "-01",
		"zero trace id":      "00-" + strings.Repeat("0", 32) + "-" + valid.SpanID + "-01",
		"zero span id":       "00-" + valid.TraceID + "-" + strings.Repeat("0", 16) + "-01",
		"uppercase trace id": "00-" + strings.ToUpper(valid.TraceID) + "-" + valid.SpanID + "-01",
		"bad flags":          "00-" + valid.TraceID + "-" + valid.SpanID + "-0x",
		"non-hex span id":    "00-" + valid.TraceID + "-ghijklmnopqrstuv-01",
		"whitespace-only":    "   ",
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	for name, h := range malformedTraceparents(New()) {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("%s: %q parsed without error", name, h)
		}
	}
}

// FuzzParseTraceparent feeds untrusted header values to ParseTraceparent:
// an accepted header must yield a Valid context whose own Traceparent
// re-parses to the same context. Seeds are the accepted forms of the tests
// above (plain, space-padded, future version) and the malformed table.
func FuzzParseTraceparent(f *testing.F) {
	valid := Context{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "00f067aa0ba902b7"}
	f.Add(valid.Traceparent())
	f.Add("  " + valid.Traceparent() + " ")
	f.Add("cc-" + valid.TraceID + "-" + valid.SpanID + "-01-extrafield")
	for _, h := range malformedTraceparents(valid) {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		c, err := ParseTraceparent(h)
		if err != nil {
			return
		}
		if !c.Valid() {
			t.Fatalf("accepted %q as invalid context %+v", h, c)
		}
		again, err := ParseTraceparent(c.Traceparent())
		if err != nil || again != c {
			t.Fatalf("re-parse of %q: %+v, %v; want %+v", c.Traceparent(), again, err, c)
		}
	})
}

func TestValidRejectsZeroAndBadHex(t *testing.T) {
	if (Context{}).Valid() {
		t.Fatal("zero context must be invalid")
	}
	bad := Context{TraceID: strings.Repeat("0", 32), SpanID: strings.Repeat("1", 16)}
	if bad.Valid() {
		t.Fatal("all-zero trace id must be invalid")
	}
}

func TestContextPlumbing(t *testing.T) {
	tc := New()
	tr := telemetry.NewTracer(nil)
	ctx := NewContext(context.Background(), tc, tr)

	got, ok := FromContext(ctx)
	if !ok || got != tc {
		t.Fatalf("FromContext: got %+v ok=%v", got, ok)
	}
	if TracerFromContext(ctx) != tr {
		t.Fatal("TracerFromContext lost the tracer")
	}

	sp := StartSpan(ctx, "unit")
	sp.End()
	rep := tr.Report()
	if len(rep) != 1 || rep[0].Name != "unit" {
		t.Fatalf("StartSpan did not land on the carried tracer: %+v", rep)
	}
}

func TestContextPlumbingAbsent(t *testing.T) {
	if _, ok := FromContext(context.Background()); ok {
		t.Fatal("empty context must not yield trace identifiers")
	}
	if _, ok := FromContext(nil); ok { //nolint:staticcheck // nil-safety contract under test
		t.Fatal("nil context must not yield trace identifiers")
	}
	// No tracer carried: spans must be silent no-ops.
	sp := StartSpan(context.Background(), "noop")
	sp.SetAttr("k", "v")
	sp.End()
}

func TestShort(t *testing.T) {
	if got := Short("abcdef0123456789"); got != "abcdef01" {
		t.Fatalf("Short = %q", got)
	}
	if got := Short("ab"); got != "ab" {
		t.Fatalf("Short of short id = %q", got)
	}
}
