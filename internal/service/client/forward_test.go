package client

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
)

// FuzzForwardEnvelope sends a fuzzed body, one fuzzed value for each
// ForwardHeaders name and one for a name outside the list through
// Client.Forward to a server that records what it received and answers
// with the passthrough headers and some it must not pass back. Forward
// must not panic; on success the server saw the body byte-for-byte and no
// request header outside ForwardHeaders, extra and the transport's own,
// and the result carries only PassthroughHeaders.
func FuzzForwardEnvelope(f *testing.F) {
	f.Add([]byte(`{"matrix":"lap"}`), "application/json", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", "key-1", "2000", "leak")
	f.Add([]byte{}, "", "", "", "", "")
	f.Add([]byte("\x00\xff\r\n"), "text/plain; charset=utf-8", "bad\ntrace", " spaced ", "-1", "x\x7fy")
	var (
		mu   sync.Mutex
		body []byte
		hdr  http.Header
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		mu.Lock()
		body, hdr = b, r.Header.Clone()
		mu.Unlock()
		for _, name := range PassthroughHeaders {
			w.Header().Set(name, "v")
		}
		w.Header().Set("Set-Cookie", "session=1")
		w.Header().Set("X-Fsaid-Internal", "1")
		w.WriteHeader(http.StatusTeapot)
	}))
	defer srv.Close()
	c := New(srv.URL)
	extra := http.Header{"X-Fsaid-Forwarded-By": {"router-0"}}
	// The transport's own request headers.
	transport := []string{"User-Agent", "Accept-Encoding", "Content-Length"}
	f.Fuzz(func(t *testing.T, in []byte, contentType, traceparent, idemKey, deadline, outside string) {
		h := http.Header{}
		for name, v := range map[string]string{
			"Content-Type":        contentType,
			"Traceparent":         traceparent,
			"Idempotency-Key":     idemKey,
			"X-Fsaid-Deadline-Ms": deadline,
			"X-Not-Forwarded":     outside,
		} {
			h.Set(name, v)
		}
		mu.Lock()
		body, hdr = nil, nil
		mu.Unlock()
		res, err := c.Forward(context.Background(), http.MethodPost, "/api/v1/solve", in, h, extra)
		if err != nil {
			return // a value net/http refuses to send; the call must just not panic
		}
		mu.Lock()
		gotBody, gotHdr := body, hdr
		mu.Unlock()
		if gotHdr == nil {
			t.Fatal("Forward succeeded but the server saw no request")
		}
		if !bytes.Equal(gotBody, in) {
			t.Errorf("server saw body %q, sent %q", gotBody, in)
		}
		for name := range gotHdr {
			if !slices.Contains(ForwardHeaders, name) && extra[name] == nil && !slices.Contains(transport, name) {
				t.Errorf("server saw request header %q outside the allowlist", name)
			}
		}
		if res.StatusCode != http.StatusTeapot {
			t.Errorf("status %d, want %d", res.StatusCode, http.StatusTeapot)
		}
		for name := range res.Header {
			if !slices.Contains(PassthroughHeaders, name) {
				t.Errorf("result carries response header %q outside PassthroughHeaders", name)
			}
		}
	})
}
