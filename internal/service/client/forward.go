package client

// Raw forwarding support for the cluster router (internal/cluster). The
// router must relay a client's request to the owning shard and hand the
// shard's response back byte-for-byte — decode/re-encode would be a place
// for envelope drift to hide, and the routed-vs-direct compatibility
// guarantee forbids exactly that. Forward therefore moves opaque bodies
// and a small allowlist of protocol headers; the typed methods stay the
// API for everything that terminates at this client.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// maxForwardBytes bounds a forwarded response body read (matches the
// service's own 64 MiB upload bound).
const maxForwardBytes = 64 << 20

// ForwardHeaders is the request-header allowlist a router relays to a
// shard: the tracing, idempotency, deadline and content-type protocol
// headers, and Accept (a matrix GET answers MatrixMarket text when asked).
// Everything else (hop-by-hop headers, client connection noise) stays at
// the router.
var ForwardHeaders = []string{
	"Accept",
	"Content-Type",
	"Traceparent",
	"Idempotency-Key",
	"X-Fsaid-Deadline-Ms",
}

// PassthroughHeaders is the response-header allowlist a router hands back
// to the client unmodified, so client-visible semantics are identical with
// and without a router in the path: the replay marker, the backoff hint
// and the trace context.
var PassthroughHeaders = []string{
	"Content-Type",
	"Traceparent",
	"Retry-After",
	"X-Fsaid-Idempotent-Replay",
}

// ForwardResult is one relayed exchange: the shard's status, the
// passthrough headers, and the raw body bytes.
type ForwardResult struct {
	StatusCode int
	Header     http.Header
	Body       []byte
}

// Forward relays one request to this client's daemon: method and path as
// given, body verbatim, request headers filtered through ForwardHeaders
// plus extra (the router adds its forwarded-by marker there). The response
// is returned whole — any HTTP status is a successful Forward; only
// transport failures (connection refused/reset, dropped response) return
// an error, which is exactly the failover signal the router acts on.
func (c *Client) Forward(ctx context.Context, method, path string, body []byte, hdr http.Header, extra http.Header) (*ForwardResult, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	for _, name := range ForwardHeaders {
		if v := hdr.Get(name); v != "" {
			req.Header.Set(name, v)
		}
	}
	for name, vals := range extra {
		for _, v := range vals {
			req.Header.Add(name, v)
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardBytes))
	if err != nil {
		return nil, err
	}
	out := &ForwardResult{StatusCode: resp.StatusCode, Header: http.Header{}, Body: data}
	for _, name := range PassthroughHeaders {
		for _, v := range resp.Header.Values(name) {
			out.Header.Add(name, v)
		}
	}
	return out, nil
}

// RetryAfter reads the shard's backoff hint from a forwarded 429/503
// response (0 when absent).
func (f *ForwardResult) RetryAfter() time.Duration {
	return parseRetryAfter(f.Header.Get("Retry-After"), time.Now())
}

// Healthz probes the daemon's /healthz. The health document is returned
// for any HTTP status (the endpoint answers 503 with a body when failing);
// an error means transport failure.
func (c *Client) Healthz(ctx context.Context) (obs.Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return obs.Health{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return obs.Health{}, err
	}
	defer resp.Body.Close()
	var h obs.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return obs.Health{}, err
	}
	return h, nil
}

// Version fetches the daemon's /version build info — the rolling-upgrade
// compatibility probe.
func (c *Client) Version(ctx context.Context) (obs.VersionInfo, error) {
	var v obs.VersionInfo
	err := c.do(ctx, http.MethodGet, "/version", nil, "", &v)
	return v, err
}

// Base returns the daemon address this client targets.
func (c *Client) Base() string { return c.base }
