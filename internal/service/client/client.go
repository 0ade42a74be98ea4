// Package client is the Go client for the fsaid solve daemon
// (internal/service): typed wrappers over the /api/v1 endpoints, used by the
// fsaid client subcommands and the service tests. It speaks plain
// net/http — no dependencies beyond the service API types.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/trace"
)

// APIError is a non-2xx response from the daemon, carrying the decoded
// error envelope. For 429 responses RetryAfter holds the server's backoff
// suggestion.
type APIError struct {
	StatusCode int
	Body       service.ErrorBody
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Body.Error != "" {
		return fmt.Sprintf("fsaid: HTTP %d: %s", e.StatusCode, e.Body.Error)
	}
	return fmt.Sprintf("fsaid: HTTP %d", e.StatusCode)
}

// Client talks to one fsaid daemon.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the daemon at base (e.g. "http://127.0.0.1:7474").
// A missing scheme defaults to http://.
func New(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// SetHTTPClient replaces the underlying HTTP client (custom transport,
// keep-alive policy, proxies). Call it before the client is shared; a nil
// argument is ignored.
func (c *Client) SetHTTPClient(hc *http.Client) {
	if hc != nil {
		c.hc = hc
	}
}

// do runs one request and decodes the JSON response into out (when non-nil).
// Non-2xx statuses become *APIError.
func (c *Client) do(ctx context.Context, method, path string, body io.Reader, contentType string, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeAPIError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeAPIError drains a non-2xx response into a typed *APIError. The error
// envelope may carry the daemon-assigned job and trace ids (429/timeout
// paths), so callers can quote the identifiers the daemon logged under.
func decodeAPIError(resp *http.Response) *APIError {
	apiErr := &APIError{StatusCode: resp.StatusCode}
	_ = json.NewDecoder(resp.Body).Decode(&apiErr.Body)
	apiErr.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
	return apiErr
}

// maxRetryAfter caps a parsed Retry-After wait at 2^31 s, the value RFC 9111
// §1.2.2 substitutes for a delta-seconds too large to represent, so a huge
// header can neither wrap the wait negative nor small.
const maxRetryAfter = (1 << 31) * time.Second

// parseRetryAfter interprets a Retry-After header value per RFC 9110
// §10.2.3: either delta-seconds or an HTTP-date. A date in the past (or an
// unparsable value) yields 0; either form is clamped at maxRetryAfter.
func parseRetryAfter(s string, now time.Time) time.Duration {
	if s == "" {
		return 0
	}
	// Atoi saturates an out-of-range digit string at ±MaxInt with ErrRange.
	if secs, err := strconv.Atoi(s); err == nil || errors.Is(err, strconv.ErrRange) {
		switch {
		case secs < 0:
			return 0
		case int64(secs) > int64(maxRetryAfter/time.Second):
			return maxRetryAfter
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(s); err == nil {
		if d := t.Sub(now); d > 0 {
			return min(d, maxRetryAfter)
		}
	}
	return 0
}

func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, path, bytes.NewReader(data), "application/json", out)
}

// RegisterMatgen registers a matrix of the internal/matgen suite by spec
// name, optionally aliased.
func (c *Client) RegisterMatgen(ctx context.Context, spec, name string) (service.MatrixInfo, error) {
	var info service.MatrixInfo
	err := c.postJSON(ctx, "/api/v1/matrices", service.RegisterRequest{Matgen: spec, Name: name}, &info)
	return info, err
}

// RegisterMatrixMarket uploads a MatrixMarket coordinate file, optionally
// aliased.
func (c *Client) RegisterMatrixMarket(ctx context.Context, r io.Reader, name string) (service.MatrixInfo, error) {
	path := "/api/v1/matrices"
	if name != "" {
		path += "?" + url.Values{"name": {name}}.Encode()
	}
	var info service.MatrixInfo
	err := c.do(ctx, http.MethodPost, path, r, "text/plain", &info)
	return info, err
}

// Matrices lists the registered matrices.
func (c *Client) Matrices(ctx context.Context) ([]service.MatrixInfo, error) {
	var out []service.MatrixInfo
	err := c.do(ctx, http.MethodGet, "/api/v1/matrices", nil, "", &out)
	return out, err
}

// Matrix fetches one registered matrix's descriptor by fingerprint or name.
func (c *Client) Matrix(ctx context.Context, ref string) (service.MatrixInfo, error) {
	var out service.MatrixInfo
	err := c.do(ctx, http.MethodGet, "/api/v1/matrices/"+url.PathEscape(ref), nil, "", &out)
	return out, err
}

// Unregister removes a matrix (and its cached preconditioners).
func (c *Client) Unregister(ctx context.Context, ref string) error {
	return c.do(ctx, http.MethodDelete, "/api/v1/matrices/"+url.PathEscape(ref), nil, "", nil)
}

// Solve submits a solve job and waits for its result. Saturation surfaces
// as *APIError with StatusCode 429 and RetryAfter set. The request runs
// under a fresh client-originated trace (use SolveTraced to control or keep
// the trace context, e.g. to report its id after a timeout).
func (c *Client) Solve(ctx context.Context, req service.SolveRequest) (*service.SolveResponse, error) {
	out, _, err := c.SolveTraced(ctx, req, trace.Context{})
	return out, err
}

// SolveTraced submits a solve job under the given trace context (the zero
// value originates a fresh trace). The context travels as the W3C
// traceparent header, so the daemon's span tree, structured logs and run
// report all carry the caller's trace id. The trace context actually used is
// returned on every path — including transport errors such as timeouts,
// where no response exists but the daemon keeps logging the (still running)
// job under that id.
func (c *Client) SolveTraced(ctx context.Context, req service.SolveRequest, tc trace.Context) (*service.SolveResponse, trace.Context, error) {
	if !tc.Valid() {
		tc = trace.New()
	}
	data, err := marshalSolve(req)
	if err != nil {
		return nil, tc, err
	}
	out, err := c.solveOnce(ctx, data, tc, "")
	return out, tc, err
}

func marshalSolve(req service.SolveRequest) ([]byte, error) { return json.Marshal(req) }

// solveOnce performs a single POST /api/v1/solve attempt. The marshalled
// body is passed in so retries resend identical bytes; idemKey (when
// non-empty) travels as the Idempotency-Key header; a context deadline is
// propagated as the remaining-millisecond budget header so the server can
// stop working for a caller that gave up.
func (c *Client) solveOnce(ctx context.Context, body []byte, tc trace.Context, idemKey string) (*service.SolveResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/api/v1/solve", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("traceparent", tc.Traceparent())
	if idemKey != "" {
		hreq.Header.Set(service.HeaderIdempotencyKey, idemKey)
	}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		hreq.Header.Set(service.HeaderDeadlineMS, strconv.FormatInt(ms, 10))
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, decodeAPIError(resp)
	}
	var out service.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Jobs lists the daemon's job history, most recent first.
func (c *Client) Jobs(ctx context.Context) ([]service.JobInfo, error) {
	var out []service.JobInfo
	err := c.do(ctx, http.MethodGet, "/api/v1/jobs", nil, "", &out)
	return out, err
}

// Job fetches one job record.
func (c *Client) Job(ctx context.Context, id string) (service.JobInfo, error) {
	var out service.JobInfo
	err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+url.PathEscape(id), nil, "", &out)
	return out, err
}

// Stats fetches the daemon's registry/cache/queue counters.
func (c *Client) Stats(ctx context.Context) (service.Stats, error) {
	var out service.Stats
	err := c.do(ctx, http.MethodGet, "/api/v1/stats", nil, "", &out)
	return out, err
}
