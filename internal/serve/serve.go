// Package serve is the HTTP/JSON front end of the concurrent parse
// service: it exposes the grammar registry (internal/registry) over a
// small REST surface so many clients can share lazily generated parse
// tables — register or update grammars, parse single sentences, and
// batch-parse many sentences fanned out across a worker pool.
//
// Endpoints (all JSON unless noted):
//
//	GET    /healthz                     liveness probe
//	GET    /readyz                      readiness probe (503 until MarkReady)
//	GET    /metrics                     Prometheus text exposition
//	GET    /v1/stats                    service-wide counters
//	GET    /v1/trace                    recent parse-lifecycle spans
//	GET    /v1/grammars                 list entries with table stats
//	PUT    /v1/grammars/{name}          register or replace a grammar
//	GET    /v1/grammars/{name}          one entry's stats
//	DELETE /v1/grammars/{name}          remove an entry
//	POST   /v1/grammars/{name}/parse    parse one sentence
//	POST   /v1/grammars/{name}/batch    parse many sentences concurrently
//	POST   /v1/grammars/{name}/rules    add/delete rules incrementally
//	POST   /v1/grammars/{name}/snapshot persist one entry's table
//	GET    /v1/grammars/{name}/trace    one grammar's recent spans
//	POST   /v1/snapshot                 persist every entry's table
//	POST   /v1/grammars/{name}/sessions open a document session
//	GET    /v1/sessions                 list open sessions
//	PATCH  /v1/sessions/{id}            splice edits into a session, reparse
//	GET    /v1/sessions/{id}            one session's reuse accounting
//	GET    /v1/sessions/{id}/stat       alias of GET /v1/sessions/{id}
//	GET    /v1/sessions/{id}/tree       a session's parse forest
//	DELETE /v1/sessions/{id}            close a session
//	POST   /v1/grammars/{name}/complete accept-set query / cursor ops
//	GET    /v1/completions              list open completion cursors
//	GET    /v1/completions/{id}         one cursor's accounting
//	DELETE /v1/completions/{id}         close a completion cursor
//
// Document sessions hold a parsed document server-side so editors ship
// token splices instead of whole documents; Earley-backed entries
// reparse incrementally, reusing every item set left of the edit. Bad
// splice offsets map to 416, unknown or evicted sessions to 404, and
// the session-count cap to 429.
//
// Completion cursors answer constrained-decoding queries: "which
// terminals may come next after this prefix". A request either ships a
// prefix (optionally once:true for a stateless query) or resumes a
// retained cursor by id, feeding tokens, restoring checkpoints and
// testing candidate terminals against the accept set — served as
// names plus a dense bitset over the grammar's stable terminal
// vocabulary. Non-viable prefixes map to 422, stale cursors (grammar
// modified underneath) to 409, out-of-range restores to 416, the
// cursor cap to 429 and over-long prefixes to 413.
//
// Every non-2xx response carries the uniform error envelope
// {"error": {"code", "message", "retry_after_s"?}}; codes are stable
// strings (throttled, cursor_stale, timeout, ...) so clients dispatch
// without matching message text.
//
// A registration may pick its parsing backend ("engine": glr, lalr,
// ll, earley, or auto — which probes the grammar and records why); the
// chosen engine and its selection reason appear in the entry's stats,
// and /v1/stats counts entries per engine.
//
// When the backing registry has a snapshot store, registering a grammar
// whose snapshot matches resumes the saved lazy table instead of
// generating cold, and /v1/stats reports the snapshot subsystem
// (entries on engines without persistable tables are skipped; an
// explicit snapshot request for one is 409). Admission-control
// rejections (per-entry concurrent-parse, forest-size and request-rate
// limits) map to 429 Too Many Requests.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ipg/internal/cancel"
	"ipg/internal/engine"
	"ipg/internal/obs"
	"ipg/internal/registry"
)

// Server routes requests to a registry. Create with New, mount via
// Handler.
type Server struct {
	reg   *registry.Registry
	mux   *http.ServeMux
	start time.Time

	// maxBatch bounds POST .../batch input counts (SetMaxBatchInputs);
	// maxBody bounds request bodies (SetMaxBodyBytes); parseTimeout
	// bounds each parse-shaped request's engine time (SetParseTimeout,
	// 0 = unbounded).
	maxBatch     int
	maxBody      int64
	parseTimeout time.Duration

	// tracer records parse-lifecycle spans (nil = tracing off); logger
	// is the structured request log (nil = silent). Configure with
	// SetTracer/SetLogger before serving traffic.
	tracer *obs.Tracer
	logger *slog.Logger
	// ready gates /readyz: false until MarkReady, which the binary calls
	// once preloading (including snapshot restores) is complete.
	ready atomic.Bool

	requests       atomic.Uint64
	parses         atomic.Uint64
	batchSentences atomic.Uint64
	rejected429    atomic.Uint64
}

// DefaultMaxBatchInputs bounds batch requests unless overridden with
// SetMaxBatchInputs.
const DefaultMaxBatchInputs = 1024

// DefaultMaxBodyBytes bounds request bodies unless overridden with
// SetMaxBodyBytes.
const DefaultMaxBodyBytes = 1 << 22

// New builds a server over reg (an empty registry when nil).
func New(reg *registry.Registry) *Server {
	if reg == nil {
		reg = registry.New()
	}
	s := &Server{reg: reg, mux: http.NewServeMux(), start: time.Now(),
		maxBatch: DefaultMaxBatchInputs, maxBody: DefaultMaxBodyBytes}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/grammars/{name}/trace", s.handleGrammarTrace)
	s.mux.HandleFunc("GET /v1/grammars", s.handleList)
	s.mux.HandleFunc("PUT /v1/grammars/{name}", s.handleRegister)
	s.mux.HandleFunc("GET /v1/grammars/{name}", s.handleInfo)
	s.mux.HandleFunc("DELETE /v1/grammars/{name}", s.handleRemove)
	s.mux.HandleFunc("POST /v1/grammars/{name}/parse", s.handleParse)
	s.mux.HandleFunc("POST /v1/grammars/{name}/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/grammars/{name}/rules", s.handleRules)
	s.mux.HandleFunc("POST /v1/grammars/{name}/snapshot", s.handleSnapshotOne)
	s.mux.HandleFunc("POST /v1/snapshot", s.handleSnapshotAll)
	s.mux.HandleFunc("POST /v1/grammars/{name}/sessions", s.handleSessionOpen)
	s.mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	s.mux.HandleFunc("PATCH /v1/sessions/{id}", s.handleSessionEdit)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionStat)
	s.mux.HandleFunc("GET /v1/sessions/{id}/stat", s.handleSessionStat) // alias, kept for older clients
	s.mux.HandleFunc("GET /v1/sessions/{id}/tree", s.handleSessionTree)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionClose)
	s.mux.HandleFunc("POST /v1/grammars/{name}/complete", s.handleComplete)
	s.mux.HandleFunc("GET /v1/completions", s.handleCompletionList)
	s.mux.HandleFunc("GET /v1/completions/{id}", s.handleCompletionStat)
	s.mux.HandleFunc("DELETE /v1/completions/{id}", s.handleCompletionClose)
	return s
}

// SetMaxBatchInputs overrides the batch-size cap (0 restores the
// default). Call before serving traffic.
func (s *Server) SetMaxBatchInputs(n int) {
	if n <= 0 {
		n = DefaultMaxBatchInputs
	}
	s.maxBatch = n
}

// SetMaxBodyBytes overrides the request-body size cap (0 restores the
// default). Call before serving traffic.
func (s *Server) SetMaxBodyBytes(n int64) {
	if n <= 0 {
		n = DefaultMaxBodyBytes
	}
	s.maxBody = n
}

// SetParseTimeout bounds every parse-shaped request's engine time:
// parses running longer are aborted mid-drive at the engine's
// cancellation checkpoints and answered 504 (0 disables). Call before
// serving traffic.
func (s *Server) SetParseTimeout(d time.Duration) { s.parseTimeout = d }

// parseCtx derives the per-parse context: the configured parse timeout
// layered over the request context, so a deadline, a client disconnect
// or a drain-time force-cancel all reach the engine's drive loop. The
// returned cancel must run when the parse completes.
func (s *Server) parseCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.parseTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.parseTimeout)
}

// Registry exposes the backing registry (for preloading grammars).
func (s *Server) Registry() *registry.Registry { return s.reg }

// SetTracer installs the parse-lifecycle tracer (nil disables tracing).
// Call before serving traffic.
func (s *Server) SetTracer(t *obs.Tracer) { s.tracer = t }

// Tracer returns the installed tracer (nil when tracing is off).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// SetLogger installs the structured request log (nil silences it). Call
// before serving traffic.
func (s *Server) SetLogger(l *slog.Logger) { s.logger = l }

// log returns the configured logger, or a discard logger so call sites
// never nil-check.
func (s *Server) log() *slog.Logger {
	if s.logger != nil {
		return s.logger
	}
	return obs.NopLogger()
}

// MarkReady flips /readyz to 200. The binary calls it once preloading —
// including snapshot restores — has completed, so orchestrators only
// route traffic to instances with warm tables published.
func (s *Server) MarkReady() { s.ready.Store(true) }

// MarkNotReady flips /readyz back to 503. The binary calls it when a
// drain begins, so orchestrators stop routing new traffic while
// in-flight requests finish.
func (s *Server) MarkNotReady() { s.ready.Store(false) }

// statusWriter captures the response status for request logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Handler returns the HTTP handler with request counting, request-ID
// propagation and structured request logging. Each request gets an ID —
// the client's X-Request-Id when present, a generated one otherwise —
// which is echoed in the response header, carried on the request
// context into the registry and engine layers, and stamped onto any
// trace span the request produces.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		r = r.WithContext(obs.WithRequestID(r.Context(), id))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		s.mux.ServeHTTP(sw, r)
		s.log().Debug("request",
			"method", r.Method, "path", r.URL.Path, "status", sw.status,
			"duration", time.Since(start), "request_id", id)
	})
}

// errorDetail is the payload of the uniform error envelope: a stable
// machine-readable code, the human-readable message, and — on
// retryable statuses — the Retry-After hint mirrored into the body so
// clients need not scrape headers.
type errorDetail struct {
	Code        string `json:"code"`
	Message     string `json:"message"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
}

// errorBody is the uniform error envelope: every non-2xx response is
// {"error": {"code": ..., "message": ..., "retry_after_s"?: N}}.
type errorBody struct {
	Error errorDetail `json:"error"`
}

// errorCode derives the stable code for an error response. Specific
// sentinel errors get their own codes (so clients can dispatch without
// string matching); everything else is coded by status class.
func errorCode(status int, err error) string {
	switch {
	case errors.Is(err, engine.ErrCursorStale):
		return "cursor_stale"
	case errors.Is(err, engine.ErrRejected):
		return "prefix_rejected"
	case errors.Is(err, engine.ErrBadCheckpoint):
		return "bad_checkpoint"
	}
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusRequestedRangeNotSatisfiable:
		return "bad_range"
	case http.StatusUnprocessableEntity:
		return "invalid_input"
	case http.StatusTooManyRequests:
		return "throttled"
	case statusClientClosedRequest:
		return "client_closed"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "timeout"
	default:
		return "internal"
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: errorDetail{
		Code:    errorCode(status, err),
		Message: err.Error(),
	}})
}

// writeErrorRetry answers a retryable failure, setting the Retry-After
// header and mirroring the hint into the envelope body.
func writeErrorRetry(w http.ResponseWriter, status, retrySec int, err error) {
	if retrySec <= 0 {
		writeError(w, status, err)
		return
	}
	w.Header().Set("Retry-After", strconv.Itoa(retrySec))
	writeJSON(w, status, errorBody{Error: errorDetail{
		Code:        errorCode(status, err),
		Message:     err.Error(),
		RetryAfterS: retrySec,
	}})
}

func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	limit := s.maxBody
	if limit <= 0 {
		limit = DefaultMaxBodyBytes
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func (s *Server) entry(w http.ResponseWriter, r *http.Request) (*registry.Entry, bool) {
	name := r.PathValue("name")
	e, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no grammar %q", name))
		return nil, false
	}
	return e, true
}

// ---- health and stats ----

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"grammars": s.reg.Len(),
		"uptime":   time.Since(s.start).String(),
	})
}

// SnapshotSubsystemStats is the snapshot section of /v1/stats, present
// when the registry has a snapshot store.
type SnapshotSubsystemStats struct {
	Dir string `json:"dir"`
	// Saves/Restores/Rejected/Errors count snapshot writes, warm
	// restores at registration, stale-hash rejections and
	// corrupt/unreadable failures.
	Saves    uint64 `json:"saves_total"`
	Restores uint64 `json:"restores_total"`
	Rejected uint64 `json:"rejected_total"`
	Errors   uint64 `json:"errors_total"`
	// LastSaveUnix is the most recent successful save (0 = never).
	LastSaveUnix int64 `json:"last_save_unix"`
}

// ServiceStats is the /v1/stats response.
type ServiceStats struct {
	Grammars       int    `json:"grammars"`
	Registered     uint64 `json:"registered_total"`
	Requests       uint64 `json:"http_requests_total"`
	Parses         uint64 `json:"parse_requests_total"`
	BatchSentences uint64 `json:"batch_sentences_total"`
	// Rejected429 counts requests and batch items refused with 429.
	Rejected429 uint64 `json:"admission_rejected_total"`
	Uptime      string `json:"uptime"`
	// Engines counts entries by the concrete backend serving them, and
	// EngineSelection spells out each entry's binding with its reason —
	// the per-grammar selection at a glance.
	Engines         map[string]int             `json:"engines,omitempty"`
	EngineSelection map[string]EngineSelection `json:"engine_selection,omitempty"`
	// LatencyByEngine aggregates every entry's request-latency histogram
	// by the concrete backend serving it: the per-engine p50/p95/p99 of
	// the service.
	LatencyByEngine map[string]*LatencyStats `json:"latency_by_engine,omitempty"`
	// Snapshots reports the snapshot subsystem (null when disabled).
	Snapshots *SnapshotSubsystemStats `json:"snapshots,omitempty"`
	// Canceled aggregates parses aborted mid-drive across all entries,
	// keyed by cancellation reason (deadline, client_gone, shutdown,
	// injected); Panics counts engine panics recovered into errors.
	Canceled map[string]uint64 `json:"parses_canceled_total,omitempty"`
	Panics   uint64            `json:"parse_panics_total"`
	// Resilience reports the fault-tolerance subsystem: drain state,
	// breaker configuration, memory budget and load shedder.
	Resilience ResilienceInfo `json:"resilience"`
}

// ResilienceInfo is the fault-tolerance section of /v1/stats.
type ResilienceInfo struct {
	Draining      bool   `json:"draining"`
	DrainRejected uint64 `json:"drain_rejected_total"`
	// BreakerThreshold/BreakerCooldownMS echo the circuit-breaker
	// configuration (threshold 0 = disabled).
	BreakerThreshold  int   `json:"breaker_threshold,omitempty"`
	BreakerCooldownMS int64 `json:"breaker_cooldown_ms,omitempty"`
	// Memory budget admission (budget 0 = unlimited; usage is the
	// estimate of the last refresh).
	MemBudgetBytes int64  `json:"mem_budget_bytes,omitempty"`
	MemUsageBytes  int64  `json:"mem_usage_bytes"`
	MemRejected    uint64 `json:"mem_rejected_total"`
	// Load shedder state and lifetime sheds.
	ShedActive bool   `json:"shed_active"`
	Shed       uint64 `json:"shed_total"`
	// SnapshotRetries counts snapshot saves re-attempted after a write
	// error; ParseTimeoutMS echoes the per-parse deadline (0 = none).
	SnapshotRetries uint64 `json:"snapshot_retries_total"`
	ParseTimeoutMS  int64  `json:"parse_timeout_ms,omitempty"`
}

// LatencyStats is the JSON rendering of a request-latency histogram:
// percentiles are reported as the upper bound of the power-of-two bucket
// holding them, in microseconds.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  uint64  `json:"p50_us"`
	P95US  uint64  `json:"p95_us"`
	P99US  uint64  `json:"p99_us"`
}

// latencyOf renders a snapshot, nil when the histogram is empty (so the
// JSON omits entries that have served nothing yet).
func latencyOf(s registry.LatencySnapshot) *LatencyStats {
	if s.Count == 0 {
		return nil
	}
	return &LatencyStats{
		Count:  s.Count,
		MeanUS: s.MeanUS(),
		P50US:  s.PercentileUS(0.50),
		P95US:  s.PercentileUS(0.95),
		P99US:  s.PercentileUS(0.99),
	}
}

// EngineCaps is the JSON rendering of an engine capability row.
type EngineCaps struct {
	Trees       bool `json:"trees"`
	Ambiguity   bool `json:"ambiguity"`
	Incremental bool `json:"incremental"`
	Lazy        bool `json:"lazy"`
	Snapshot    bool `json:"snapshot"`
	Complete    bool `json:"complete"`
}

func capsOf(c engine.Caps) EngineCaps {
	return EngineCaps{
		Trees:       c.Trees,
		Ambiguity:   c.Ambiguity,
		Incremental: c.Incremental,
		Lazy:        c.Lazy,
		Snapshot:    c.Snapshot,
		Complete:    c.Complete,
	}
}

// EngineSelection is one entry's engine binding in /v1/stats.
type EngineSelection struct {
	Engine string `json:"engine"`
	// Requested is present when it differs from the concrete engine
	// (i.e. auto registrations).
	Requested string `json:"requested,omitempty"`
	Reason    string `json:"reason"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := ServiceStats{
		Grammars:       s.reg.Len(),
		Registered:     s.reg.Registered(),
		Requests:       s.requests.Load(),
		Parses:         s.parses.Load(),
		BatchSentences: s.batchSentences.Load(),
		Rejected429:    s.rejected429.Load(),
		Uptime:         time.Since(s.start).String(),
	}
	if entries := s.reg.Entries(); len(entries) > 0 {
		out.Engines = make(map[string]int, 4)
		out.EngineSelection = make(map[string]EngineSelection, len(entries))
		byEngine := make(map[string]registry.LatencySnapshot, 4)
		for _, e := range entries {
			st := e.Stats()
			out.Engines[st.Engine.String()]++
			sel := EngineSelection{Engine: st.Engine.String(), Reason: st.EngineReason}
			if st.Requested == engine.KindAuto {
				sel.Requested = st.Requested.String()
			}
			out.EngineSelection[st.Name] = sel
			merged := byEngine[st.Engine.String()]
			merged.Add(st.Latency)
			byEngine[st.Engine.String()] = merged
			out.Panics += st.Panics
			for reason := 1; reason < int(cancel.NumReasons); reason++ {
				if n := st.Canceled[reason]; n > 0 {
					if out.Canceled == nil {
						out.Canceled = make(map[string]uint64, int(cancel.NumReasons)-1)
					}
					out.Canceled[cancel.Reason(reason).String()] += n
				}
			}
		}
		for kind, snap := range byEngine {
			if lat := latencyOf(snap); lat != nil {
				if out.LatencyByEngine == nil {
					out.LatencyByEngine = make(map[string]*LatencyStats, len(byEngine))
				}
				out.LatencyByEngine[kind] = lat
			}
		}
	}
	res := s.reg.Resilience()
	out.Resilience = ResilienceInfo{
		Draining:          res.Draining,
		DrainRejected:     res.DrainRejected,
		BreakerThreshold:  res.Breaker.Threshold,
		BreakerCooldownMS: res.Breaker.Cooldown.Milliseconds(),
		MemBudgetBytes:    res.MemBudgetBytes,
		MemUsageBytes:     res.MemUsageBytes,
		MemRejected:       res.MemRejected,
		ShedActive:        res.ShedActive,
		Shed:              res.Shed,
		SnapshotRetries:   res.SnapshotRetries,
		ParseTimeoutMS:    s.parseTimeout.Milliseconds(),
	}
	if st := s.reg.SnapshotStats(); st.Enabled {
		out.Snapshots = &SnapshotSubsystemStats{
			Dir:          st.Dir,
			Saves:        st.Saves,
			Restores:     st.Restores,
			Rejected:     st.Rejected,
			Errors:       st.Errors,
			LastSaveUnix: st.LastSaveUnix,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// ---- registry management ----

// EntryInfo is the JSON rendering of one entry's stats.
type EntryInfo struct {
	Name    string `json:"name"`
	Form    string `json:"form"`
	Version uint64 `json:"version"`
	Rules   int    `json:"rules"`
	// Engine is the concrete backend serving the entry; EngineRequested
	// is what the registration asked for ("auto" stays auto after
	// selection), and EngineReason explains the binding — "requested",
	// or the auto prober's verdict.
	Engine          string `json:"engine"`
	EngineRequested string `json:"engine_requested,omitempty"`
	EngineReason    string `json:"engine_reason,omitempty"`
	// EngineCaps is the serving backend's capability row (the Caps
	// matrix of internal/engine, per entry).
	EngineCaps EngineCaps `json:"engine_caps"`
	// RuleUpdates counts applied rule additions/deletions;
	// UpdateParseRatio relates them to parses served.
	RuleUpdates      uint64  `json:"rule_updates_total"`
	UpdateParseRatio float64 `json:"update_parse_ratio"`
	// EngineReprobes counts the full table probes the auto engine ran
	// to reselect (0 for explicitly selected backends); SnapshotSaves
	// counts this entry's persisted table snapshots.
	EngineReprobes uint64 `json:"engine_reprobes_total"`
	SnapshotSaves  uint64 `json:"snapshot_saves_total"`
	States         int    `json:"states"`
	// Complete/Initial/Dirty break down the shared table: how much has
	// been generated by need, and how much a modification invalidated.
	Complete int `json:"complete_states"`
	Initial  int `json:"initial_states"`
	Dirty    int `json:"dirty_states"`
	// Generator work counters.
	ParsesServed      uint64  `json:"parses_served"`
	StatesExpanded    uint64  `json:"states_expanded"`
	StatesInvalidated uint64  `json:"states_invalidated"`
	ActionCalls       uint64  `json:"action_calls"`
	CacheHitRate      float64 `json:"cache_hit_rate"`
	// StatesRepaired counts table states spliced in place by incremental
	// repair on rule updates; RepairFallbacks counts updates whose
	// repair declined and regenerated the table from scratch.
	StatesRepaired  uint64 `json:"states_repaired_total"`
	RepairFallbacks uint64 `json:"repair_fallbacks_total"`
	// Restored reports the entry resumed its table from a snapshot at
	// registration instead of generating cold.
	Restored bool `json:"restored_from_snapshot"`
	// InflightParses / AdmissionRejected describe admission control;
	// the Max*/Rate* fields echo the entry's limits (0 = unlimited).
	InflightParses      int64   `json:"inflight_parses"`
	AdmissionRejected   uint64  `json:"admission_rejected_total"`
	MaxConcurrentParses int     `json:"max_concurrent_parses,omitempty"`
	MaxForestNodes      int     `json:"max_forest_nodes,omitempty"`
	RatePerSec          float64 `json:"rate_per_sec,omitempty"`
	RateBurst           int     `json:"rate_burst,omitempty"`
	// Latency is the entry's request-latency histogram, omitted (not
	// null) until the entry has served a request — the same shape
	// /v1/stats uses for its per-engine aggregation, pinned by test.
	Latency *LatencyStats `json:"latency,omitempty"`
}

func infoOf(st registry.Stats) EntryInfo {
	info := EntryInfo{
		Name:                st.Name,
		Form:                st.Form.String(),
		Version:             st.Version,
		Rules:               st.Rules,
		Engine:              st.Engine.String(),
		EngineReason:        st.EngineReason,
		EngineCaps:          capsOf(st.Caps),
		RuleUpdates:         st.RuleUpdates,
		UpdateParseRatio:    st.UpdateParseRatio(),
		EngineReprobes:      st.EngineReprobes,
		SnapshotSaves:       st.SnapshotSaves,
		States:              st.States,
		Complete:            st.Complete,
		Initial:             st.Initial,
		Dirty:               st.Dirty,
		ParsesServed:        st.Counters.ParsesServed,
		StatesExpanded:      st.Counters.StatesExpanded,
		StatesInvalidated:   st.Counters.StatesInvalidated,
		ActionCalls:         st.Counters.ActionCalls,
		CacheHitRate:        st.Counters.HitRate(),
		StatesRepaired:      st.Counters.StatesRepaired,
		RepairFallbacks:     st.Counters.RepairFallbacks,
		Restored:            st.Restored,
		InflightParses:      st.Inflight,
		AdmissionRejected:   st.AdmissionRejected,
		MaxConcurrentParses: st.Limits.MaxConcurrentParses,
		MaxForestNodes:      st.Limits.MaxForestNodes,
		RatePerSec:          st.Limits.RatePerSec,
		RateBurst:           st.Limits.Burst,
		Latency:             latencyOf(st.Latency),
	}
	if st.Requested == engine.KindAuto {
		info.EngineRequested = st.Requested.String()
	}
	return info
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.Entries()
	out := make([]EntryInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, infoOf(e.Stats()))
	}
	writeJSON(w, http.StatusOK, map[string]any{"grammars": out})
}

// RegisterRequest is the PUT /v1/grammars/{name} body.
type RegisterRequest struct {
	// Source is the grammar text: plain BNF rules or an SDF definition.
	Source string `json:"source"`
	// Form is "auto" (default), "rules"/"bnf", or "sdf".
	Form string `json:"form,omitempty"`
	// Start picks the start sort of an SDF definition.
	Start string `json:"start,omitempty"`
	// Engine selects the parsing backend: "glr", "lalr", "ll", "earley",
	// or "auto" (probe the grammar and record why). Empty inherits the
	// service default.
	Engine string `json:"engine,omitempty"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	form, err := registry.ParseForm(req.Form)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	kind, err := engine.ParseKind(req.Engine)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	e, err := s.reg.Register(r.PathValue("name"), registry.Spec{
		Source:    req.Source,
		Form:      form,
		StartSort: req.Start,
		Engine:    kind,
	})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	status := http.StatusCreated
	if e.Version() > 1 {
		status = http.StatusOK // replacement
	}
	writeJSON(w, status, infoOf(e.Stats()))
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, infoOf(e.Stats()))
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	if !s.reg.Remove(r.PathValue("name")) {
		writeError(w, http.StatusNotFound, fmt.Errorf("no grammar %q", r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": true})
}

// ---- parsing ----

// ParseRequest is the POST .../parse body. Input is source text for SDF
// grammars and whitespace-separated terminal names for rules grammars.
type ParseRequest struct {
	Input string `json:"input"`
	// Trees requests forest construction (needed for tree counts and
	// rendering; SDF priority filters always imply it).
	Trees bool `json:"trees,omitempty"`
	// Render additionally includes the bracketed forest rendering.
	Render bool `json:"render,omitempty"`
}

// ParseResponse reports one parse. Trees and Ambiguous are omitted when
// the forest was not built (trees:false on an accepted parse), since
// acceptance alone says nothing about ambiguity.
type ParseResponse struct {
	Accepted bool `json:"accepted"`
	// Trees counts surviving derivations (0 = rejected, 1 =
	// unambiguous, -1 = too many to count).
	Trees     *int64 `json:"trees,omitempty"`
	Ambiguous *bool  `json:"ambiguous,omitempty"`
	Forest    string `json:"forest,omitempty"`
	// ErrorPos/Expected describe the first failure of rejected inputs.
	// ErrorPos is a pointer so a rejection at token 0 still serializes.
	ErrorPos *int     `json:"error_pos,omitempty"`
	Expected []string `json:"expected,omitempty"`
	// DurationUS is the server-side parse time in microseconds.
	DurationUS int64 `json:"duration_us"`
}

func (s *Server) parseOne(ctx context.Context, e *registry.Entry, req ParseRequest) (ParseResponse, error) {
	ctx, cancelParse := s.parseCtx(ctx)
	defer cancelParse()
	start := time.Now()
	tr := s.tracer.StartParse(e.Name(), engine.ServingKind(e.Engine()).String(), obs.RequestID(ctx))
	res, err := e.Run(ctx, req.Input, nil, req.Trees || req.Render, tr)
	if err != nil {
		s.finishTrace(tr, false, err)
		return ParseResponse{}, err
	}
	out := renderResult(e, res, req.Render, tr, start)
	s.finishTrace(tr, res.Accepted, nil)
	return out, nil
}

// renderResult translates a registry result into the wire shape,
// recording name/forest rendering — which reads the shared symbol
// table under the entry's read lock inside Describe — as a render
// stage. Shared by the parse and session endpoints.
func renderResult(e *registry.Entry, res registry.Result, render bool, tr *obs.ParseTrace, start time.Time) ParseResponse {
	out := ParseResponse{
		Accepted:   res.Accepted,
		DurationUS: time.Since(start).Microseconds(),
	}
	if res.TreesKnown {
		trees := res.Trees
		ambiguous := trees > 1 || trees == -1
		out.Trees = &trees
		out.Ambiguous = &ambiguous
	}
	tr.BeginStage(obs.StageRender)
	expected, forestText := e.Describe(res, render)
	tr.EndStage(obs.StageRender)
	if !res.Accepted {
		pos := res.ErrorPos
		out.ErrorPos = &pos
		out.Expected = expected
	}
	out.Forest = forestText
	return out
}

// finishTrace completes a parse trace and logs slow-parse outliers with
// their full stage breakdown. Nil traces (tracing off or unsampled with
// no slow threshold) cost two nil checks.
func (s *Server) finishTrace(tr *obs.ParseTrace, accepted bool, err error) {
	sp, _, slow := tr.FinishSpan(accepted, err)
	if slow {
		s.log().Warn("slow parse",
			"grammar", sp.Grammar, "engine", sp.Engine,
			"duration", sp.Total, "accepted", accepted,
			"request_id", sp.RequestID, "err", err)
	}
}

func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	var req ParseRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	s.parses.Add(1)
	out, err := s.parseOne(r.Context(), e, req)
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// throttledErr reports the retryable admission-control class: the
// entry (or the service) is protecting itself, not rejecting the
// input. Retry shortly and the request should go through.
func throttledErr(err error) bool {
	return errors.Is(err, registry.ErrBusy) ||
		errors.Is(err, registry.ErrForestLimit) ||
		errors.Is(err, registry.ErrRateLimited) ||
		errors.Is(err, registry.ErrMemoryBudget) ||
		errors.Is(err, registry.ErrShed) ||
		errors.Is(err, registry.ErrSessionLimit) ||
		errors.Is(err, registry.ErrCursorLimit)
}

// statusClientClosedRequest is the de-facto (nginx) status for requests
// abandoned by the client; net/http has no constant for it. The client
// is gone, so the status is for the access log, not the wire.
const statusClientClosedRequest = 499

// drainRetryAfterSec is the Retry-After hint on drain-time 503s: long
// enough for the orchestrator to route around this instance.
const drainRetryAfterSec = 5

// classifyFailure maps a failed request — a parse, a session operation
// or a completion — onto its HTTP status and a Retry-After hint in
// seconds (0 = no header):
//
//	canceled: deadline/injected → 504, client gone → 499,
//	          shutdown (drain force-cancel) → 503 + Retry-After
//	quarantined (breaker open) → 503 + Retry-After from the breaker
//	draining → 503 + Retry-After
//	throttled (busy/forest/rate/memory/shed, session or cursor cap)
//	          → 429 + Retry-After
//	engine panic → 500 (stack logged server-side)
//	unknown, closed or evicted session or cursor → 404
//	stale cursor → 409
//	document or prefix over its token budget → 413
//	out-of-range splice or restore checkpoint → 416
//	anything else (input problem, rejected token) → 422
func (s *Server) classifyFailure(err error) (status, retryAfterSec int) {
	var cerr *cancel.Error
	if errors.As(err, &cerr) {
		switch cerr.Reason {
		case cancel.ClientGone:
			return statusClientClosedRequest, 0
		case cancel.Shutdown:
			return http.StatusServiceUnavailable, drainRetryAfterSec
		default: // Deadline, Injected
			return http.StatusGatewayTimeout, 0
		}
	}
	var q *registry.QuarantineError
	if errors.As(err, &q) {
		ra := int(q.RetryAfter / time.Second)
		if ra < 1 {
			ra = 1
		}
		return http.StatusServiceUnavailable, ra
	}
	var p *engine.PanicError
	switch {
	case errors.Is(err, registry.ErrDraining):
		return http.StatusServiceUnavailable, drainRetryAfterSec
	case throttledErr(err):
		s.rejected429.Add(1)
		return http.StatusTooManyRequests, 1
	case errors.As(err, &p):
		s.log().Error("parse panicked",
			"err", fmt.Sprint(p.Value), "stack", string(p.Stack))
		return http.StatusInternalServerError, 0
	case errors.Is(err, registry.ErrNoSession), errors.Is(err, registry.ErrNoCursor):
		return http.StatusNotFound, 0
	case errors.Is(err, engine.ErrCursorStale):
		return http.StatusConflict, 0
	case errors.Is(err, registry.ErrDocTooLarge), errors.Is(err, registry.ErrPrefixTooLong):
		return http.StatusRequestEntityTooLarge, 0
	case errors.Is(err, engine.ErrSplice), errors.Is(err, engine.ErrBadCheckpoint):
		return http.StatusRequestedRangeNotSatisfiable, 0
	}
	return http.StatusUnprocessableEntity, 0
}

// writeFailure answers a failed request with the classified status and
// Retry-After hint.
func (s *Server) writeFailure(w http.ResponseWriter, err error) {
	status, retry := s.classifyFailure(err)
	writeErrorRetry(w, status, retry, err)
}

// BatchRequest is the POST .../batch body: many sentences fanned out
// across a worker pool over the shared table.
type BatchRequest struct {
	Inputs []string `json:"inputs"`
	// Workers bounds pool size (default GOMAXPROCS, clamped to the
	// number of inputs).
	Workers int  `json:"workers,omitempty"`
	Trees   bool `json:"trees,omitempty"`
}

// BatchItem is one sentence's outcome; Error is set instead of the
// parse fields when the sentence could not be processed. Throttled
// additionally marks admission-control rejections (the 429 class):
// those are retryable, unlike tokenization errors.
type BatchItem struct {
	ParseResponse
	Error     string `json:"error,omitempty"`
	Throttled bool   `json:"throttled,omitempty"`
}

// BatchResponse aggregates a batch.
type BatchResponse struct {
	Results  []BatchItem `json:"results"`
	Accepted int         `json:"accepted"`
	Rejected int         `json:"rejected"`
	Errors   int         `json:"errors"`
	// Throttled counts items refused by admission control (also
	// included in Errors).
	Throttled int `json:"throttled,omitempty"`
	Workers   int `json:"workers"`
	// WallUS is the end-to-end batch time; with W workers and a warm
	// table it approaches sum(parse time)/W.
	WallUS int64 `json:"wall_us"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	var req BatchRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if len(req.Inputs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch needs at least one input"))
		return
	}
	if len(req.Inputs) > s.maxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d inputs exceeds the limit of %d; split the request", len(req.Inputs), s.maxBatch))
		return
	}
	workers := req.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(req.Inputs) {
		workers = len(req.Inputs)
	}
	s.batchSentences.Add(uint64(len(req.Inputs)))

	start := time.Now()
	results := make([]BatchItem, len(req.Inputs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				out, err := s.parseOne(r.Context(), e, ParseRequest{Input: req.Inputs[idx], Trees: req.Trees})
				if err != nil {
					throttled := throttledErr(err)
					if throttled {
						s.rejected429.Add(1)
					}
					results[idx] = BatchItem{Error: err.Error(), Throttled: throttled}
					continue
				}
				results[idx] = BatchItem{ParseResponse: out}
			}
		}()
	}
	for idx := range req.Inputs {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()

	resp := BatchResponse{Results: results, Workers: workers, WallUS: time.Since(start).Microseconds()}
	for _, item := range results {
		switch {
		case item.Error != "":
			resp.Errors++
			if item.Throttled {
				resp.Throttled++
			}
		case item.Accepted:
			resp.Accepted++
		default:
			resp.Rejected++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- incremental modification ----

// RulesRequest is the POST .../rules body: BNF rule text to add and/or
// delete incrementally against the shared table.
type RulesRequest struct {
	Add    string `json:"add,omitempty"`
	Delete string `json:"delete,omitempty"`
}

// RulesResponse reports the update. On a 422 the Error field names the
// failing half and Added/Deleted report what was already applied to the
// live table before the failure (deletions run first), so clients can
// see partial application instead of assuming the update was rejected
// wholesale.
type RulesResponse struct {
	Added   int    `json:"added"`
	Deleted int    `json:"deleted"`
	Version uint64 `json:"version"`
	// Invalidated counts the table states the update made dirty — the
	// paper's measure of how local the change was.
	Invalidated uint64 `json:"states_invalidated_total"`
	Error       string `json:"error,omitempty"`
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	var req RulesRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	var resp RulesResponse
	// Rule updates join the parse-lifecycle trace: repairs show up as
	// the repair stage with their state counts on the span. An auto
	// entry's kept tables are repaired by the next verdict read, not
	// here, so the span is labelled without settling.
	tr := s.tracer.StartParse(e.Name(), engine.ServingKind(e.Engine()).String(), obs.RequestID(r.Context()))
	var updateErr error
	defer func() { tr.Finish(updateErr == nil, updateErr) }()
	fail := func(err error) {
		updateErr = err
		resp.Error = err.Error()
		resp.Version = e.Version()
		resp.Invalidated = e.Counters().StatesInvalidated
		writeJSON(w, http.StatusUnprocessableEntity, resp)
	}
	if req.Delete != "" {
		n, err := e.UpdateRules(req.Delete, false, tr)
		resp.Deleted = n
		if err != nil {
			fail(err)
			return
		}
	}
	if req.Add != "" {
		n, err := e.UpdateRules(req.Add, true, tr)
		resp.Added = n
		if err != nil {
			fail(err)
			return
		}
	}
	resp.Version = e.Version()
	resp.Invalidated = e.Counters().StatesInvalidated
	writeJSON(w, http.StatusOK, resp)
}

// ---- snapshots ----

// SnapshotResponse reports one entry's persisted snapshot.
type SnapshotResponse struct {
	Name string `json:"name"`
	// States/Complete describe the persisted table; Bytes is the
	// payload size.
	States   int    `json:"states"`
	Complete int    `json:"complete_states"`
	Version  uint64 `json:"version"`
	// GrammarHash is the fingerprint a future registration must match
	// to resume this snapshot.
	GrammarHash string `json:"grammar_hash"`
}

// SnapshotAllResponse reports a service-wide snapshot pass.
type SnapshotAllResponse struct {
	Saved int    `json:"saved"`
	Error string `json:"error,omitempty"`
}

func (s *Server) handleSnapshotOne(w http.ResponseWriter, r *http.Request) {
	meta, err := s.reg.SnapshotEntry(r.PathValue("name"))
	switch {
	case errors.Is(err, registry.ErrNoStore), errors.Is(err, registry.ErrNotSnapshottable):
		// Both are configuration/capability conflicts, not input errors:
		// no store mounted, or the entry's engine keeps no persistable
		// table (only lazy GLR does).
		writeError(w, http.StatusConflict, err)
		return
	case errors.Is(err, registry.ErrUnknownGrammar):
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{
		Name:        meta.Name,
		States:      meta.States,
		Complete:    meta.Complete,
		Version:     meta.Version,
		GrammarHash: meta.GrammarHash,
	})
}

func (s *Server) handleSnapshotAll(w http.ResponseWriter, r *http.Request) {
	saved, err := s.reg.SnapshotAll()
	if errors.Is(err, registry.ErrNoStore) {
		writeError(w, http.StatusConflict, err)
		return
	}
	resp := SnapshotAllResponse{Saved: saved}
	if err != nil {
		// Partial failure still reports what was saved.
		resp.Error = err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}
