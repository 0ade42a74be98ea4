// Package service is the long-running solve daemon behind cmd/fsaid: a
// matrix registry keyed by content fingerprint, an LRU cache of computed
// FSAI/FSAIE factors so repeated solves on the same operator skip the
// expensive setup phase entirely, and a bounded, admission-controlled job
// queue in front of the solver. The observability server (internal/obs) is
// mounted on the same listener, so /metrics, /healthz, /traces and /runs
// describe the daemon live. Each job's span tree is the one record of its
// stage times, and /healthz reflects daemon state, not any job's outcome.
//
// The paper's setup-cost argument is the whole motivation: FSAI(E) setup is
// the dominant phase of a one-shot solve, and (as the adaptive-FSAI
// literature argues at scale) only pays for itself when amortized across
// many right-hand sides and repeated solves on the same operator. The
// service turns the reproduction into exactly that amortizing system.
package service

import "repro/internal/store"

// MatrixInfo describes one registered matrix.
type MatrixInfo struct {
	// Fingerprint is the hex SHA-256 content fingerprint (sparse.CSR
	// Fingerprint) — the canonical handle for solve requests.
	Fingerprint string `json:"fingerprint"`
	// Name is an optional client-chosen alias, unique across the registry:
	// the first of Aliases.
	Name string `json:"name,omitempty"`
	// Aliases lists every alias of the matrix, in registration order.
	Aliases []string `json:"aliases,omitempty"`
	Rows    int      `json:"rows"`
	NNZ     int      `json:"nnz"`
	// Created reports whether this registration stored a new matrix (false:
	// the content was already registered and the call deduplicated).
	Created bool `json:"created"`
}

// RegisterRequest is the JSON body of POST /api/v1/matrices when the client
// registers a generator spec instead of uploading a MatrixMarket file.
type RegisterRequest struct {
	// Matgen names a matrix of the internal/matgen evaluation suite.
	Matgen string `json:"matgen"`
	// Name optionally aliases the matrix in the registry.
	Name string `json:"name,omitempty"`
}

// SolveRequest is the JSON body of POST /api/v1/solve.
type SolveRequest struct {
	// Matrix references a registered matrix by fingerprint or name.
	Matrix string `json:"matrix"`

	// Precond selects the preconditioner (default "fsaie"):
	// none|jacobi|fsai|fsaie-sp|fsaie|adaptive. FSAI-family factors are
	// cached by (matrix fingerprint, setup options); none/jacobi are cheap
	// enough to rebuild per job.
	Precond string `json:"precond,omitempty"`
	// Filter / LineBytes / PatternPower / Tau mirror the fsai.Options setup
	// knobs (defaults 0.01 / 64 / 1 / 0); the ones the named factor reads
	// are part of its cache key (see PrecondKey).
	// A negative Filter selects 0 — no extension filtering (JSON cannot
	// distinguish an absent field from an explicit 0, so 0 means default).
	Filter       float64 `json:"filter,omitempty"`
	LineBytes    int     `json:"line_bytes,omitempty"`
	PatternPower int     `json:"pattern_power,omitempty"`
	Tau          float64 `json:"tau,omitempty"`

	// Tol / MaxIter configure the PCG solve (defaults 1e-8 / 10000).
	Tol     float64 `json:"tol,omitempty"`
	MaxIter int     `json:"max_iter,omitempty"`

	// Resilient runs the solve under the adaptive recovery chain
	// (internal/resilience). Each rung's preconditioner comes as a plain
	// job's does: FSAI-family factors from the cache, except a shift
	// retry's, built for this job alone. Resilient jobs are never batched.
	Resilient bool `json:"resilient,omitempty"`

	// TimeoutMS bounds the job wall clock (0 or negative: the server
	// default; above MaxInt64/1e6, the longest time.Duration, the request
	// is a 400). The job runs under a context deadline and ends with status
	// "cancelled" on expiry, like fsaisolve -timeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// RHS is the right-hand side (must have exactly Rows values). Empty
	// means the all-ones vector.
	RHS []float64 `json:"rhs,omitempty"`
	// ReturnSolution includes the solution vector in the response.
	ReturnSolution bool `json:"return_solution,omitempty"`

	// HoldMS keeps the job's concurrency slot occupied for this long before
	// solving. It exists for admission-control drills (tests and the
	// service-smoke script saturate the queue deterministically with it);
	// production clients leave it zero.
	HoldMS int64 `json:"hold_ms,omitempty"`

	// SetupOnly builds (or finds cached) the FSAI-family preconditioner and
	// returns without running CG: the cache-warming primitive. The cluster
	// router uses it to replicate hot factors onto replica shards so a
	// failover lands on a warm cache. Requires an FSAI-family Precond;
	// incompatible with Resilient. The response's Status is "setup-only"
	// and Iterations is 0.
	SetupOnly bool `json:"setup_only,omitempty"`
}

// Header names of the client-resilience protocol.
const (
	// HeaderDeadlineMS carries the client's remaining deadline budget as
	// whole milliseconds. The server takes min(budget, request/server
	// timeout) as the job's wall-clock bound, applied from admission — a
	// job still queue-waiting when the budget expires is cancelled with
	// HTTP 504 instead of occupying a slot for a caller that already gave
	// up. Relative milliseconds (not an absolute timestamp) keep the
	// contract clock-skew-safe.
	HeaderDeadlineMS = "X-Fsaid-Deadline-Ms"
	// HeaderIdempotencyKey makes a solve request safely retryable: two
	// requests with the same key execute the solve at most once, and a
	// retry of a completed request replays the original job's response
	// (marked by HeaderIdempotentReplay and SolveResponse.Replayed).
	HeaderIdempotencyKey = "Idempotency-Key"
	// HeaderIdempotentReplay is "1" on responses served from the
	// idempotency index instead of a fresh execution.
	HeaderIdempotentReplay = "X-Fsaid-Idempotent-Replay"
	// HeaderForwardedBy marks a request forwarded by a cluster router,
	// carrying the router's name. A router that receives a request already
	// bearing it answers 508 Loop Detected instead of forwarding again —
	// the guard against routing loops in misconfigured topologies (a
	// router listed as another router's peer).
	HeaderForwardedBy = "X-Fsaid-Forwarded-By"
	// MatrixMarketType, as the Accept header of GET /api/v1/matrices/<ref>,
	// asks for the matrix itself as general-form MatrixMarket text.
	MatrixMarketType = "text/x-matrix-market"
)

// StatusSetupOnly is the SolveResponse.Status of a setup_only request: the
// preconditioner was built (or found cached), no CG ran.
const StatusSetupOnly = "setup-only"

// Cache-outcome values reported in SolveResponse.Cache and the run report's
// service section.
const (
	CacheHit      = "hit"      // warm: the job used a cached factor and paid no setup
	CacheMiss     = "miss"     // cold: the job used a cached factor and paid setup
	CacheUncached = "uncached" // none/jacobi, or no FSAI rung came from the cache
)

// SolveResponse is the JSON result of POST /api/v1/solve.
type SolveResponse struct {
	JobID string `json:"job_id"`
	// TraceID identifies the job's end-to-end request trace: the span tree
	// is retrievable as GET /traces/<trace-id>, the same id appears in the
	// daemon's structured logs and the job's run report, and it equals the
	// trace id of the client's traceparent header when one was sent.
	TraceID string `json:"trace_id,omitempty"`
	// Matrix is the fingerprint the job resolved to.
	Matrix string `json:"matrix"`
	// Precond is the preconditioner that produced the result (for resilient
	// jobs: the final recovery rung).
	Precond string `json:"precond"`
	// Cache is the preconditioner-cache outcome (CacheHit, CacheMiss or
	// CacheUncached).
	Cache string `json:"cache"`

	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	Status     string  `json:"status"`
	RelRes     float64 `json:"relres"`

	// IterAnomaly marks a warm (cache-hit) solve whose iteration count
	// drifted well above the fingerprint's cached baseline — the cached
	// factor converges, but no longer like it used to (e.g. a harder RHS
	// regime). The SLO monitor counts these per fingerprint.
	IterAnomaly bool `json:"iter_anomaly,omitempty"`

	// LowBandwidth marks a solve whose achieved SpMV memory bandwidth fell
	// more than 30% below the matrix's rolling baseline (see GET /roofline
	// for the per-matrix state and the run report's roofline section for
	// this job's full kernel placement).
	LowBandwidth bool `json:"low_bandwidth,omitempty"`

	// Every *NS field is read from the job's span tree (GET
	// /traces/<trace-id>). DecodeNS is the "decode" span: the request body
	// read plus JSON decode. TotalNS is the "job" span: from enqueue to the
	// start of the answer. QueueWaitNS is the "batch-window" plus the
	// "admission-wait" span; SetupNS the sum of the "setup" spans, the
	// preconditioner setup this job actually paid (0 on a cache hit);
	// SolveNS the PCG kernel-timing total, which covers the "cg-solve" span
	// (summed over a resilient job's solve attempts). DecodeNS +
	// TotalNS plus the "encode" span (the service.job.encode_ns histogram)
	// is the server's whole share.
	DecodeNS    int64 `json:"decode_ns"`
	QueueWaitNS int64 `json:"queue_wait_ns"`
	SetupNS     int64 `json:"setup_ns"`
	SolveNS     int64 `json:"solve_ns"`
	TotalNS     int64 `json:"total_ns"`

	// Replayed marks a response served from the idempotency index: a retry
	// of a request whose original execution already completed. All other
	// fields describe the original job.
	Replayed bool `json:"replayed,omitempty"`

	// Batch is present when the job executed as one column of a batched
	// block solve (the request batcher grouped it with concurrent
	// same-fingerprint warm solves). Results are bit-identical to the
	// unbatched solve; the section records how the cost amortized.
	Batch *BatchInfo `json:"batch,omitempty"`

	// Report is the run-report file name under /runs when the server keeps
	// run history.
	Report string `json:"report,omitempty"`

	// X is the solution vector when ReturnSolution was set.
	X []float64 `json:"x,omitempty"`
}

// BatchInfo is the batch section of a SolveResponse (and of the job's run
// report): which block solve carried this job and what batching bought.
type BatchInfo struct {
	// ID names the batch execution (one admission slot, one block solve).
	ID string `json:"id"`
	// Size is the number of jobs (columns) the batch solved together.
	Size int `json:"size"`
	// Column is this job's column index within the block.
	Column int `json:"column"`
	// WindowWaitNS is time this job spent in the open batch window before
	// the group launched: its "batch-window" span.
	WindowWaitNS int64 `json:"window_wait_ns"`
	// SolveWallNS is the wall time of the whole block solve; PerRHSNS is
	// SolveWallNS divided by Size — the amortized per-job solve cost the
	// batch achieved.
	SolveWallNS int64 `json:"solve_wall_ns"`
	PerRHSNS    int64 `json:"per_rhs_ns"`
	// AchievedAI is the spmm kernel's arithmetic intensity over the batch
	// (flop/byte): one matrix stream serving Size columns raises it toward
	// Size× the single-RHS value (see the roofline section).
	AchievedAI float64 `json:"achieved_ai,omitempty"`
}

// JobState values of JobInfo.State.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobRejected = "rejected"
)

// JobInfo is one entry of the job log served on GET /api/v1/jobs.
type JobInfo struct {
	ID string `json:"id"`
	// TraceID links the job to its request trace (GET /traces/<trace-id>).
	TraceID string `json:"trace_id,omitempty"`
	Matrix  string `json:"matrix"`
	Precond string `json:"precond"`
	State   string `json:"state"`
	Cache   string `json:"cache,omitempty"`
	// Batch is the batch id when the job executed as one column of a
	// batched block solve.
	Batch string `json:"batch,omitempty"`
	// Status is the typed solver termination for finished jobs; Err the
	// failure text for failed/rejected ones.
	Status string `json:"status,omitempty"`
	Err    string `json:"error,omitempty"`

	Iterations int     `json:"iterations,omitempty"`
	Converged  bool    `json:"converged"`
	RelRes     float64 `json:"relres,omitempty"`

	DecodeNS    int64 `json:"decode_ns,omitempty"`
	QueueWaitNS int64 `json:"queue_wait_ns,omitempty"`
	SetupNS     int64 `json:"setup_ns,omitempty"`
	SolveNS     int64 `json:"solve_ns,omitempty"`
	TotalNS     int64 `json:"total_ns,omitempty"`

	EnqueuedAt string `json:"enqueued_at,omitempty"`
	FinishedAt string `json:"finished_at,omitempty"`
}

// CacheStats is the preconditioner-cache section of GET /api/v1/stats.
// Every field but Capacity reads a service_cache_* series; Hits and Misses
// count lookups, one per job group or FSAI rung, not one per job.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// QueueStats is the admission-control section of GET /api/v1/stats.
// Inflight, Accepted, Completed and Rejected count admission groups (a
// batch is one); Rejected is the service_jobs_rejected counter.
type QueueStats struct {
	// Depth is the number of jobs currently waiting for a slot; Inflight
	// the number currently holding one.
	Depth       int   `json:"depth"`
	Capacity    int   `json:"capacity"`
	Inflight    int   `json:"inflight"`
	MaxInflight int   `json:"max_inflight"`
	Accepted    int64 `json:"accepted"`
	Rejected    int64 `json:"rejected"`
	Completed   int64 `json:"completed"`
}

// Stats is the GET /api/v1/stats document.
type Stats struct {
	Matrices int        `json:"matrices"`
	Cache    CacheStats `json:"cache"`
	Queue    QueueStats `json:"queue"`
	// Store summarizes the durable store (nil without -data-dir).
	Store *store.Stats `json:"store,omitempty"`
	// Degraded is the memory-pressure degradation state: "normal",
	// "pressure" (cold solves shed) or "critical" (all solves shed).
	Degraded string `json:"degraded,omitempty"`
}

// ErrorBody is the JSON error envelope of non-2xx API responses.
type ErrorBody struct {
	Error string `json:"error"`
	// RetryAfterS accompanies HTTP 429: the server's backoff suggestion in
	// seconds (also sent as the Retry-After header).
	RetryAfterS int `json:"retry_after_s,omitempty"`
	// JobID / TraceID identify the failed or rejected solve job when the
	// error happened after job assignment, so a client that got a 429 or a
	// timeout can still quote the ids the daemon logged under.
	JobID   string `json:"job_id,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
}
