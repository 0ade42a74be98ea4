package cluster

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// routerMaxBody bounds request bodies the router reads (matches the
// shard's own upload bound).
const routerMaxBody = 64 << 20

// RouterOptions configures a Router.
type RouterOptions struct {
	// Name marks forwarded requests via the X-Fsaid-Forwarded-By header
	// (default "fsaid-router"). A router receiving a request already
	// bearing the header answers 508 instead of forwarding — the loop
	// guard.
	Name string
	// Replicas is the number of replica shards per matrix beyond the
	// primary (default 1). The effective replica count is capped by the
	// fleet size.
	Replicas int
	// WarmThreshold is the number of routed cache-hit solves on one
	// fingerprint after which the router replicates the hot factor to the
	// replica shards via setup_only solves (default 3; 0 keeps the
	// default, negative disables warming).
	WarmThreshold int
	// Membership owns the peer set (required).
	Membership *Membership
	// Ring is the placement ring shared with Membership (required).
	Ring *Ring
	// Logger receives routing decisions; nil discards them.
	Logger *slog.Logger
	// Registry receives the cluster_* series and backs the obs /metrics.
	Registry *telemetry.Registry
	// Traces retains the router-side span trees (stamped Node "router"),
	// stitching with the executing shard's traces by shared trace id.
	Traces *trace.Recorder
}

// Router fronts a fleet of fsaid shards with the daemon's own HTTP/JSON
// API: clients talk to the router exactly as they would to a single
// daemon, and the router places each matrix on the ring, forwards
// register/solve/GET to its owning shards with failover to the replicas,
// sends DELETE to every live shard, and replicates hot preconditioners so
// a failover lands on a warm cache.
type Router struct {
	opt     RouterOptions
	ring    *Ring
	members *Membership
	log     *slog.Logger
	reg     *telemetry.Registry
	traces  *trace.Recorder

	obs *obs.Server
	mux *http.ServeMux

	// The router keeps only what a fresh process rebuilds: the shards'
	// registries are the catalog, refs caches their answers.
	mu       sync.Mutex
	refs     map[string]string // matrix reference -> fingerprint
	warmHits map[string]int    // routed cache-hit solves per fingerprint
	warmed   map[string]bool   // fingerprints already replicated this epoch

	lnMu sync.Mutex
	ln   net.Listener
	hs   *http.Server
}

// NewRouter builds the router and its embedded observability server. Call
// Start to serve, or mount Handler on an existing listener.
func NewRouter(opt RouterOptions) *Router {
	if opt.Name == "" {
		opt.Name = "fsaid-router"
	}
	if opt.Replicas <= 0 {
		opt.Replicas = 1
	}
	if opt.WarmThreshold == 0 {
		opt.WarmThreshold = 3
	}
	if opt.Logger == nil {
		opt.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	rt := &Router{
		opt:      opt,
		ring:     opt.Ring,
		members:  opt.Membership,
		log:      opt.Logger,
		reg:      opt.Registry,
		traces:   opt.Traces,
		refs:     map[string]string{},
		warmHits: map[string]int{},
		warmed:   map[string]bool{},
	}
	rt.traces.SetNode("router")
	rt.reg.SetHelp("cluster_requests", "requests routed, by api")
	rt.reg.SetHelp("cluster_forwards", "forward attempts to shards, by outcome")
	rt.reg.SetHelp("cluster_failovers", "solves that failed over past the primary shard")
	rt.reg.SetHelp("cluster_loop_rejects", "requests rejected by the forwarding loop guard (508)")
	rt.reg.SetHelp("cluster_warmups", "replica cache-warming setup_only solves, by outcome")
	rt.reg.SetHelp("cluster_reregistrations", "matrices replayed to shards that lost them")
	rt.reg.SetHelp("cluster_peers", "peers by membership state")
	rt.reg.SetHelp("cluster_rebalances", "ring mutations (ejections and rejoins)")
	rt.reg.SetHelp("cluster_probe_failures", "failed peer health probes")
	rt.reg.SetHelp("cluster_forward_failures", "data-path transport failures reported to membership")
	rt.reg.SetHelp("cluster_probe_incompatible", "peers ejected for mismatched build module")

	rt.obs = obs.NewServer(obs.Options{
		Registry: opt.Registry,
		Traces:   opt.Traces,
		Cluster:  rt,
	})
	rt.members.OnChange(rt.onMembershipChange)
	rt.onMembershipChange()

	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/matrices", rt.handleMatrices)
	mux.HandleFunc("/api/v1/matrices/", rt.handleMatrix)
	mux.HandleFunc("/api/v1/solve", rt.handleSolve)
	mux.HandleFunc("/api/v1/jobs", rt.handleJobs)
	mux.HandleFunc("/api/v1/jobs/", rt.handleJob)
	mux.HandleFunc("/api/v1/stats", rt.handleStats)
	mux.Handle("/", rt.obs.Handler())
	rt.mux = mux
	return rt
}

// Handler returns the router's full HTTP handler (API plus observability).
func (rt *Router) Handler() http.Handler { return rt.mux }

// Start listens on addr, launches the membership prober, and serves in the
// background. It returns the bound address.
func (rt *Router) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: rt.mux}
	rt.lnMu.Lock()
	rt.ln, rt.hs = ln, hs
	rt.lnMu.Unlock()
	rt.members.Start()
	go func() { _ = hs.Serve(ln) }()
	return ln.Addr(), nil
}

// Shutdown drains the router: the prober stops, then the HTTP server.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.members.Close()
	rt.lnMu.Lock()
	hs := rt.hs
	rt.hs, rt.ln = nil, nil
	rt.lnMu.Unlock()
	_ = rt.obs.Shutdown(ctx)
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}

// onMembershipChange runs after every ring mutation: placement may have
// changed, so the warming dedup resets (hot factors re-replicate onto the
// new replica sets) and the router's /healthz reflects the fleet state.
func (rt *Router) onMembershipChange() {
	rt.mu.Lock()
	rt.warmed = map[string]bool{}
	rt.mu.Unlock()
	status, reason := rt.members.Health()
	if status == obs.HealthOK {
		rt.obs.SetHealth(obs.HealthOK, "")
		return
	}
	rt.obs.SetHealth(status, reason)
}

// owners places a key on the ring: primary first, then the replicas. It
// depends on the key and the live ring only, so a matrix's owners change
// when membership does and never when another matrix registers.
func (rt *Router) owners(key string) []string {
	return rt.ring.Place(key, 1+rt.opt.Replicas)
}

// resolve maps a matrix reference (fingerprint or alias) to the
// fingerprint it places by. The shards' registries are the catalog: a
// reference missing from the refs cache is looked up on the live shards
// and the answer cached. A reference no live shard holds resolves to ""
// and places by itself, so its shard answers the 404 a direct request
// gets. cached reports an answer from the cache, which another router may
// have made stale (see routed).
func (rt *Router) resolve(ctx context.Context, ref string) (fp string, cached bool) {
	rt.mu.Lock()
	fp, cached = rt.refs[ref]
	rt.mu.Unlock()
	if !cached {
		if info, _, ok := rt.lookup(ctx, ref, ""); ok {
			fp = info.Fingerprint
			rt.remember(fp, ref)
		}
	}
	return fp, cached
}

// lookup asks the live shards except skip for ref, in address order, and
// returns the first answer that holds it, with the shard that gave it.
func (rt *Router) lookup(ctx context.Context, ref, skip string) (service.MatrixInfo, *client.Client, bool) {
	for _, cl := range rt.live() {
		if cl.Base() == skip {
			continue
		}
		res, err := cl.Forward(ctx, http.MethodGet, "/api/v1/matrices/"+url.PathEscape(ref), nil, nil, rt.marker())
		var info service.MatrixInfo
		if err == nil && res.StatusCode == http.StatusOK && json.Unmarshal(res.Body, &info) == nil {
			return info, cl, true
		}
	}
	return service.MatrixInfo{}, nil, false
}

// remember caches each non-empty ref as naming fingerprint fp.
func (rt *Router) remember(fp string, refs ...string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, ref := range refs {
		if ref != "" {
			rt.refs[ref] = fp
		}
	}
}

// forget drops ref from the cache, with every reference cached to the same
// fingerprint and that fingerprint's warm-hit state.
func (rt *Router) forget(ref string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	fp, ok := rt.refs[ref]
	if !ok {
		return
	}
	for r, f := range rt.refs {
		if f == fp {
			delete(rt.refs, r)
		}
	}
	delete(rt.warmHits, fp)
	delete(rt.warmed, fp)
}

// routed runs try on the fingerprint ref resolves to. A cached answer may
// be stale (another router deleted the matrix, or bound the alias to
// another one), so a 404 after a cached answer drops it, and try runs once
// more on a fresh lookup.
func (rt *Router) routed(ctx context.Context, ref string, try func(fp string) *client.ForwardResult) *client.ForwardResult {
	fp, cached := rt.resolve(ctx, ref)
	res := try(fp)
	if cached && res != nil && res.StatusCode == http.StatusNotFound {
		rt.forget(ref)
		fp, _ = rt.resolve(ctx, ref)
		res = try(fp)
	}
	return res
}

// ---- solve ----

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		rt.writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if !rt.loopGuard(w, r) {
		return
	}
	rt.reg.Counter(`cluster.requests{api="solve"}`).Inc()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, routerMaxBody))
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "reading solve request: %v", err)
		return
	}
	var peek struct {
		Matrix string `json:"matrix"`
	}
	if err := json.Unmarshal(body, &peek); err != nil {
		rt.writeError(w, http.StatusBadRequest, "bad solve request: %v", err)
		return
	}

	// Continue the client's trace, or originate one so the routing hop and
	// the shard's execution stitch under a single trace id either way.
	tc := trace.Context{}
	if h := r.Header.Get("traceparent"); h != "" {
		if parsed, perr := trace.ParseTraceparent(h); perr == nil {
			tc = parsed
		} else {
			rt.traces.MalformedHeader()
		}
	}
	originated := false
	if !tc.Valid() {
		tc = trace.New()
		originated = true
	}
	extra := rt.marker()
	if originated {
		extra.Set("traceparent", tc.Traceparent())
	}

	tr := telemetry.NewTracer(nil)
	root := tr.StartSpan("route-solve")
	var (
		fp, addr        string
		backpressure    time.Duration
		sawBackpressure bool
	)
	res := rt.routed(r.Context(), peek.Matrix, func(key string) *client.ForwardResult {
		fp = cmp.Or(key, peek.Matrix)
		for i, owner := range rt.owners(fp) {
			span := tr.StartSpan("forward")
			span.SetAttr("peer", owner)
			res, ferr := rt.forward(r.Context(), owner, http.MethodPost, "/api/v1/solve", body, r.Header, extra, key)
			span.End()
			if ferr != nil {
				rt.reg.Counter(`cluster.forwards{outcome="transport-error"}`).Inc()
				rt.members.ReportFailure(owner, ferr)
				rt.log.Warn("solve forward failed, trying next replica",
					"peer", owner, "attempt", i+1, "error", ferr.Error())
				continue
			}
			if res.StatusCode == http.StatusTooManyRequests || res.StatusCode == http.StatusServiceUnavailable {
				// Shard backpressure spills to the next replica; if everyone
				// is saturated, the lowest Retry-After propagates to the
				// client.
				rt.reg.Counter(`cluster.forwards{outcome="backpressure"}`).Inc()
				ra := res.RetryAfter()
				if !sawBackpressure || (ra > 0 && ra < backpressure) {
					backpressure = ra
				}
				sawBackpressure = true
				continue
			}
			rt.members.ReportSuccess(owner)
			if i > 0 {
				rt.reg.Counter("cluster.failovers").Inc()
			}
			rt.reg.Counter(`cluster.forwards{outcome="ok"}`).Inc()
			addr = owner
			return res
		}
		return nil
	})
	root.SetAttr("matrix", fp)
	root.End()
	if res != nil {
		rt.finishSolve(w, res, fp, addr, tc, tr, body)
		return
	}
	rt.recordRouteTrace(tr, tc, fp, "", "unrouteable")
	if sawBackpressure {
		secs := int(backpressure.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		rt.writeErrorBody(w, http.StatusTooManyRequests, service.ErrorBody{
			Error:       "all shards saturated",
			RetryAfterS: secs,
			TraceID:     tc.TraceID,
		})
		return
	}
	rt.writeErrorBody(w, http.StatusServiceUnavailable, service.ErrorBody{
		Error:   "no shard could serve the solve",
		TraceID: tc.TraceID,
	})
}

// forward relays one request to the owner at addr: the one step behind
// routed solves, GETs and warm-ups. A 404 for a matrix that resolved
// (fp != "") means the shard lost it, restarted without its data dir or
// handed the key by a ring change: the matrix is replayed from a live peer
// that still holds it, and the request retried once. With no live copy
// the shard's 404 is the answer.
func (rt *Router) forward(ctx context.Context, addr, method, path string, body []byte, hdr, extra http.Header, fp string) (*client.ForwardResult, error) {
	cl, ok := rt.members.Client(addr)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown peer %s", addr)
	}
	res, err := cl.Forward(ctx, method, path, body, hdr, extra)
	if err != nil || res.StatusCode != http.StatusNotFound || fp == "" {
		return res, err
	}
	if rerr := rt.replay(ctx, cl, fp); rerr != nil {
		rt.log.Info("matrix not replayed", "peer", addr, "fingerprint", trace.Short(fp), "error", rerr.Error())
		return res, nil
	}
	rt.reg.Counter("cluster.reregistrations").Inc()
	rt.log.Info("replayed matrix to shard", "peer", addr, "fingerprint", trace.Short(fp))
	return cl.Forward(ctx, method, path, body, hdr, extra)
}

// replay copies matrix fp onto the shard behind dst from the first other
// live shard that holds it: its general-form MatrixMarket text, registered
// once under each of its aliases, in registration order. Every
// registration must land on fp.
func (rt *Router) replay(ctx context.Context, dst *client.Client, fp string) error {
	info, src, ok := rt.lookup(ctx, fp, dst.Base())
	if !ok {
		return errors.New("no live shard holds it")
	}
	mm := http.Header{"Accept": {service.MatrixMarketType}, "Content-Type": {service.MatrixMarketType}}
	text, err := src.Forward(ctx, http.MethodGet, "/api/v1/matrices/"+fp, nil, mm, rt.marker())
	if err != nil {
		return err
	}
	if text.StatusCode != http.StatusOK {
		return fmt.Errorf("%s answered HTTP %d", src.Base(), text.StatusCode)
	}
	names := info.Aliases
	if len(names) == 0 {
		names = []string{""} // registered once, unnamed
	}
	for _, name := range names {
		res, err := dst.Forward(ctx, http.MethodPost, "/api/v1/matrices?"+url.Values{"name": {name}}.Encode(),
			text.Body, mm, rt.marker())
		if err != nil {
			return err
		}
		var got service.MatrixInfo
		if res.StatusCode/100 != 2 || json.Unmarshal(res.Body, &got) != nil || got.Fingerprint != fp {
			return fmt.Errorf("registering %q answered HTTP %d: %s", name, res.StatusCode, bytes.TrimSpace(res.Body))
		}
	}
	return nil
}

// finishSolve passes the shard's response through byte-for-byte and feeds
// the warm-replication tracker.
func (rt *Router) finishSolve(w http.ResponseWriter, res *client.ForwardResult, fp, addr string, tc trace.Context, tr *telemetry.Tracer, body []byte) {
	var env struct {
		JobID  string `json:"job_id"`
		Matrix string `json:"matrix"`
		Cache  string `json:"cache"`
		Status string `json:"status"`
	}
	if res.StatusCode >= 200 && res.StatusCode < 300 {
		_ = json.Unmarshal(res.Body, &env)
	}
	rt.passThrough(w, res)
	if env.Matrix != "" {
		fp = env.Matrix
	}
	status := env.Status
	if status == "" {
		status = fmt.Sprintf("http-%d", res.StatusCode)
	}
	rt.recordRouteTraceJob(tr, tc, fp, addr, status, env.JobID)
	if env.Cache == service.CacheHit {
		rt.noteWarmHit(fp, body)
	}
}

// passThrough writes a forwarded response to the client unmodified:
// status, allowlisted headers, raw body bytes. This is what makes routed
// responses byte-for-byte identical to direct-shard responses.
func (rt *Router) passThrough(w http.ResponseWriter, res *client.ForwardResult) {
	for name, vals := range res.Header {
		for _, v := range vals {
			w.Header().Add(name, v)
		}
	}
	w.WriteHeader(res.StatusCode)
	_, _ = w.Write(res.Body)
}

func (rt *Router) recordRouteTrace(tr *telemetry.Tracer, tc trace.Context, fp, addr, status string) {
	rt.recordRouteTraceJob(tr, tc, fp, addr, status, "")
}

func (rt *Router) recordRouteTraceJob(tr *telemetry.Tracer, tc trace.Context, fp, addr, status, jobID string) {
	report := tr.Report()
	if len(report) == 0 {
		return
	}
	name := "route"
	if addr != "" {
		name = "route->" + addr
	}
	rt.traces.Record(&trace.Trace{
		TraceID:     tc.TraceID,
		SpanID:      tc.SpanID,
		JobID:       jobID,
		Fingerprint: fp,
		Name:        name,
		Status:      status,
		Root:        report[0],
	})
}

// ---- hot-factor replication ----

// noteWarmHit counts a routed cache-hit solve; once a fingerprint crosses
// the warm threshold, its factor is replicated to the replica shards so a
// failover lands on a warm cache instead of paying setup again.
func (rt *Router) noteWarmHit(fp string, body []byte) {
	if rt.opt.WarmThreshold < 0 {
		return
	}
	rt.mu.Lock()
	rt.warmHits[fp]++
	hit := rt.warmHits[fp] >= rt.opt.WarmThreshold && !rt.warmed[fp]
	if hit {
		rt.warmed[fp] = true
	}
	rt.mu.Unlock()
	if hit {
		go rt.warmReplicas(fp, body)
	}
}

// warmReplicas replays the hot solve as setup_only against every replica
// shard: the replica builds (and caches, and stores) the same factor the
// primary serves, keyed identically because the setup knobs come from the
// triggering request.
func (rt *Router) warmReplicas(fp string, body []byte) {
	var req map[string]any
	if err := json.Unmarshal(body, &req); err != nil {
		return
	}
	// Strip the per-request parts (a warm-up runs no solve, so no recovery
	// chain either); keep the setup knobs that shape the cache key (precond,
	// filter, line_bytes, pattern_power, tau).
	delete(req, "rhs")
	delete(req, "resilient")
	delete(req, "return_solution")
	delete(req, "hold_ms")
	delete(req, "timeout_ms")
	req["matrix"] = fp
	req["setup_only"] = true
	warmBody, err := json.Marshal(req)
	if err != nil {
		return
	}
	owners := rt.owners(fp)
	if len(owners) <= 1 {
		return
	}
	extra := rt.marker()
	extra.Set("traceparent", trace.New().Traceparent())
	hdr := http.Header{"Content-Type": {"application/json"}}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, addr := range owners[1:] {
		res, err := rt.forward(ctx, addr, http.MethodPost, "/api/v1/solve", warmBody, hdr, extra, fp)
		switch {
		case err != nil:
			rt.reg.Counter(`cluster.warmups{outcome="transport-error"}`).Inc()
			rt.members.ReportFailure(addr, err)
		case res.StatusCode >= 200 && res.StatusCode < 300:
			rt.reg.Counter(`cluster.warmups{outcome="ok"}`).Inc()
			rt.log.Info("replicated hot factor to replica",
				"peer", addr, "fingerprint", trace.Short(fp))
		default:
			rt.reg.Counter(`cluster.warmups{outcome="rejected"}`).Inc()
			rt.log.Warn("replica cache warmup rejected",
				"peer", addr, "fingerprint", trace.Short(fp), "status", res.StatusCode)
		}
	}
}

// ---- registration ----

func (rt *Router) handleMatrices(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		rt.writeJSON(w, http.StatusOK, rt.fleetMatrices(r.Context()))
	case http.MethodPost:
		rt.handleRegister(w, r)
	default:
		w.Header().Set("Allow", "GET, POST")
		rt.writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	if !rt.loopGuard(w, r) {
		return
	}
	rt.reg.Counter(`cluster.requests{api="register"}`).Inc()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, routerMaxBody))
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "reading register request: %v", err)
		return
	}
	// Decode with the daemon's own decoder: the router needs the content
	// fingerprint to place the matrix before any shard has seen it, and a
	// malformed or non-symmetric upload gets the daemon's 400 right here.
	a, name, err := service.DecodeRegistration(r.Header.Get("Content-Type"), r.URL.Query().Get("name"), bytes.NewReader(body))
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fp := a.Fingerprint()
	// The owners of this matrix need not be the shards that hold name, so
	// a name another matrix holds gets the daemon's 409 here, or the shards
	// would disagree on what it names.
	if name != "" {
		if held, _, ok := rt.lookup(r.Context(), name, ""); ok && held.Fingerprint != fp {
			rt.writeError(w, http.StatusConflict, "%v", service.NameTaken(name))
			return
		}
	}

	owners := rt.owners(fp)
	if len(owners) == 0 {
		rt.writeError(w, http.StatusServiceUnavailable, "no shards available")
		return
	}
	// Register on every owner (primary and replicas): replicas must be
	// able to serve the matrix the moment a failover reaches them. The
	// request goes on as the client sent it, query included.
	var first *client.ForwardResult
	registered := 0
	for _, addr := range owners {
		cl, ok := rt.members.Client(addr)
		if !ok {
			continue
		}
		res, ferr := cl.Forward(r.Context(), http.MethodPost, r.URL.RequestURI(), body, r.Header, rt.marker())
		if ferr != nil {
			rt.members.ReportFailure(addr, ferr)
			rt.log.Warn("register forward failed", "peer", addr, "error", ferr.Error())
			continue
		}
		rt.members.ReportSuccess(addr)
		if first == nil || (res.StatusCode/100 == 2 && first.StatusCode/100 != 2) {
			first = res
		}
		if res.StatusCode/100 == 2 {
			registered++
		}
	}
	if first == nil {
		rt.writeError(w, http.StatusServiceUnavailable, "no shard accepted the registration")
		return
	}
	if registered > 0 {
		rt.remember(fp, fp, name)
		rt.log.Info("matrix registered",
			"fingerprint", trace.Short(fp), "name", name,
			"owners", strings.Join(owners, ","), "replicas", registered-1)
	}
	rt.passThrough(w, first)
}

// fleetMatrices merges the matrix listings of every live shard,
// deduplicated by fingerprint, in fingerprint order: the one listing
// behind the routed GET /api/v1/matrices, the stats' matrix count and
// /cluster's matrices.
func (rt *Router) fleetMatrices(ctx context.Context) []service.MatrixInfo {
	byFP := map[string]service.MatrixInfo{}
	for _, cl := range rt.live() {
		infos, err := cl.Matrices(ctx)
		if err != nil {
			continue
		}
		for _, info := range infos {
			info.Created = false
			if have, dup := byFP[info.Fingerprint]; !dup || have.Name == "" {
				byFP[info.Fingerprint] = info
			}
		}
	}
	out := make([]service.MatrixInfo, 0, len(byFP))
	for _, info := range byFP {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}

// handleMatrix forwards GET (with failover and replay) to the matrix's
// owners, and DELETE to every live shard, so that no copy survives.
func (rt *Router) handleMatrix(w http.ResponseWriter, r *http.Request) {
	if !rt.loopGuard(w, r) {
		return
	}
	ref := strings.TrimPrefix(r.URL.Path, "/api/v1/matrices/")
	if ref == "" {
		rt.writeError(w, http.StatusNotFound, "missing matrix reference")
		return
	}
	path := "/api/v1/matrices/" + url.PathEscape(ref)
	switch r.Method {
	case http.MethodGet:
		res := rt.routed(r.Context(), ref, func(fp string) *client.ForwardResult {
			for _, addr := range rt.owners(cmp.Or(fp, ref)) {
				res, err := rt.forward(r.Context(), addr, http.MethodGet, path, nil, r.Header, rt.marker(), fp)
				if err != nil {
					rt.members.ReportFailure(addr, err)
					continue
				}
				rt.members.ReportSuccess(addr)
				return res
			}
			return nil
		})
		if res == nil {
			rt.writeError(w, http.StatusServiceUnavailable, "no shard could serve the matrix")
			return
		}
		rt.passThrough(w, res)
	case http.MethodDelete:
		rt.reg.Counter(`cluster.requests{api="delete"}`).Inc()
		var first *client.ForwardResult
		for _, cl := range rt.live() {
			res, err := cl.Forward(r.Context(), http.MethodDelete, path, nil, r.Header, rt.marker())
			if err != nil {
				rt.members.ReportFailure(cl.Base(), err)
				continue
			}
			rt.members.ReportSuccess(cl.Base())
			if first == nil || (res.StatusCode/100 == 2 && first.StatusCode/100 != 2) {
				first = res
			}
		}
		rt.forget(ref)
		if first == nil {
			rt.writeError(w, http.StatusServiceUnavailable, "no shard could delete the matrix")
			return
		}
		rt.passThrough(w, first)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		rt.writeError(w, http.StatusMethodNotAllowed, "use GET or DELETE")
	}
}

// ---- jobs and stats ----

// handleJobs merges the job logs of every live shard, most recent first.
func (rt *Router) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		rt.writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	all := []service.JobInfo{}
	for _, cl := range rt.live() {
		if jobs, err := cl.Jobs(r.Context()); err == nil {
			all = append(all, jobs...)
		}
	}
	// EnqueuedAt is RFC 3339 with nanoseconds: lexical order is time order.
	sort.SliceStable(all, func(i, j int) bool { return all[i].EnqueuedAt > all[j].EnqueuedAt })
	rt.writeJSON(w, http.StatusOK, all)
}

// handleJob finds one job record on whichever shard executed it.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		rt.writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/api/v1/jobs/")
	for _, cl := range rt.live() {
		res, err := cl.Forward(r.Context(), http.MethodGet, "/api/v1/jobs/"+url.PathEscape(id), nil, r.Header, rt.marker())
		if err != nil || res.StatusCode == http.StatusNotFound {
			continue
		}
		rt.passThrough(w, res)
		return
	}
	rt.writeError(w, http.StatusNotFound, "no job %q on any shard", id)
}

// ClusterStats is the router's GET /api/v1/stats document: the per-shard
// stats keyed by address, plus the number of matrices in the fleet's
// merged listing.
type ClusterStats struct {
	Router   string                   `json:"router"`
	Matrices int                      `json:"matrices"`
	Peers    map[string]service.Stats `json:"peers"`
	// Unreachable lists peers whose stats could not be fetched.
	Unreachable []string `json:"unreachable,omitempty"`
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	out := ClusterStats{Router: rt.opt.Name, Matrices: len(rt.fleetMatrices(r.Context())), Peers: map[string]service.Stats{}}
	for _, p := range rt.members.Peers() {
		cl, ok := rt.members.Client(p.Addr)
		if !ok {
			continue
		}
		st, err := cl.Stats(r.Context())
		if err != nil {
			out.Unreachable = append(out.Unreachable, p.Addr)
			continue
		}
		out.Peers[p.Addr] = st
	}
	rt.writeJSON(w, http.StatusOK, out)
}

// ---- topology ----

// MatrixPlacement is one matrix's row in the topology document.
type MatrixPlacement struct {
	Fingerprint string   `json:"fingerprint"`
	Name        string   `json:"name,omitempty"`
	Owners      []string `json:"owners"`
	WarmHits    int      `json:"warm_hits,omitempty"`
	Replicated  bool     `json:"replicated,omitempty"`
}

// Topology is the GET /cluster document.
type Topology struct {
	Router   string            `json:"router"`
	Replicas int               `json:"replicas"`
	VNodes   int               `json:"vnodes"`
	Epoch    uint64            `json:"epoch"`
	Peers    []PeerStatus      `json:"peers"`
	Matrices []MatrixPlacement `json:"matrices"`
}

// Topology implements obs.TopologyReporter: the matrices are the fleet's
// merged listing, each with its owners on the live ring.
func (rt *Router) Topology(ctx context.Context) any {
	top := Topology{
		Router:   rt.opt.Name,
		Replicas: rt.opt.Replicas,
		VNodes:   rt.ring.VNodes(),
		Epoch:    rt.members.Epoch(),
		Peers:    rt.members.Peers(),
		Matrices: []MatrixPlacement{},
	}
	for _, info := range rt.fleetMatrices(ctx) {
		top.Matrices = append(top.Matrices, MatrixPlacement{
			Fingerprint: info.Fingerprint, Name: info.Name, Owners: rt.owners(info.Fingerprint),
		})
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i, m := range top.Matrices {
		top.Matrices[i].WarmHits, top.Matrices[i].Replicated = rt.warmHits[m.Fingerprint], rt.warmed[m.Fingerprint]
	}
	return top
}

// ---- plumbing ----

// live returns the clients of the peers not ejected, in address order.
func (rt *Router) live() []*client.Client {
	var out []*client.Client
	for _, p := range rt.members.Peers() {
		if cl, ok := rt.members.Client(p.Addr); ok && p.State != PeerEjected {
			out = append(out, cl)
		}
	}
	return out
}

// marker is the header every request to a shard carries: a router that
// receives it answers 508 instead of forwarding again.
func (rt *Router) marker() http.Header {
	return http.Header{service.HeaderForwardedBy: {rt.opt.Name}}
}

// loopGuard rejects requests that already crossed a router: forwarding
// again could loop forever in a misconfigured topology (a router listed as
// another router's peer). Returns false when the request was rejected.
func (rt *Router) loopGuard(w http.ResponseWriter, r *http.Request) bool {
	if by := r.Header.Get(service.HeaderForwardedBy); by != "" {
		rt.reg.Counter("cluster.loop_rejects").Inc()
		rt.writeError(w, http.StatusLoopDetected,
			"request already forwarded by %q: routing loop", by)
		return false
	}
	return true
}

// writeJSON writes v as compact JSON, like the shards' own responses.
func (rt *Router) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (rt *Router) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	rt.writeErrorBody(w, code, service.ErrorBody{Error: fmt.Sprintf(format, args...)})
}

func (rt *Router) writeErrorBody(w http.ResponseWriter, code int, body service.ErrorBody) {
	rt.writeJSON(w, code, body)
}
