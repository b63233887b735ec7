package serve

import (
	"net/http"
	"slices"
	"strconv"
	"time"

	"ipg/internal/cancel"
	"ipg/internal/faultinject"
	"ipg/internal/obs"
	"ipg/internal/registry"
)

// This file is the serve layer's observability surface: the /readyz
// probe, the hand-rolled Prometheus /metrics exposition and the
// /v1/trace span endpoints. Every family is sampled on each scrape from
// counters the registry and engines already keep — the exposition
// holds no state of its own.

// ---- readiness ----

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.reg.Draining():
		writeError(w, registry.ErrDraining)
	case !s.ready.Load():
		writeError(w, errNotReady)
	default:
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "grammars": s.reg.Len()})
	}
}

// ---- /metrics ----

// family is the one declaration of a /metrics family: the exposition
// walks the families table, and the docs table in docs/API.md (pinned
// by TestMetricsDocs) and scripts/obs-smoke.sh derive from it.
type family struct {
	name   string
	typ    obs.MetricType
	labels []string // of every series; a histogram's _bucket series add le
	help   string
	sample func(f *obs.Family, sc *scrape)
}

// scrape holds what more than one family reads, gathered once per
// exposition.
type scrape struct {
	s      *Server
	stats  []registry.Stats
	snap   registry.SnapshotStats
	res    registry.ResilienceStats
	sess   registry.SessionTotals
	comp   registry.CompletionTotals
	traces obs.TracerStats
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	sc := &scrape{s: s, snap: s.reg.SnapshotStats(), res: s.reg.Resilience(),
		sess: s.reg.SessionTotals(), comp: s.reg.CompletionTotals(), traces: s.tracer.Stats()}
	for _, e := range s.reg.Entries() {
		sc.stats = append(sc.stats, e.Stats())
	}
	p := obs.NewPromWriter(w)
	for _, f := range families {
		f.sample(p.Family(f.name, f.typ, f.help), sc)
	}
	if err := p.Flush(); err != nil {
		s.log().Warn("metrics exposition failed", "err", err)
	}
}

// families is every /metrics family, in exposition order.
var families = slices.Concat([]family{
	service("ipg_uptime_seconds", obs.TypeGauge, "Seconds since the server started.",
		func(sc *scrape) float64 { return time.Since(sc.s.start).Seconds() }),
	service("ipg_grammars", obs.TypeGauge, "Registered grammars currently being served.",
		func(sc *scrape) float64 { return float64(sc.s.reg.Len()) }),
	service("ipg_grammars_registered_total", obs.TypeCounter,
		"Successful grammar registrations, including replacements.",
		func(sc *scrape) float64 { return float64(sc.s.reg.Registered()) }),
	service("ipg_http_requests_total", obs.TypeCounter, "HTTP requests received.",
		func(sc *scrape) float64 { return float64(sc.s.requests.Load()) }),
	service("ipg_parse_requests_total", obs.TypeCounter, "Single-sentence parse requests.",
		func(sc *scrape) float64 { return float64(sc.s.parses.Load()) }),
	service("ipg_batch_sentences_total", obs.TypeCounter, "Sentences submitted through batch requests.",
		func(sc *scrape) float64 { return float64(sc.s.batchSentences.Load()) }),
	service("ipg_http_rejected_total", obs.TypeCounter,
		"Requests, and batch items, refused with 429: by a grammar's rate, concurrency, forest-size, "+
			"memory-budget or load-shedder limit, or by the session or completion-cursor cap.",
		func(sc *scrape) float64 { return float64(sc.s.rejected429.Load()) }),

	perGrammar("ipg_parses_served_total", obs.TypeCounter, "Parses served per grammar.",
		func(st registry.Stats) float64 { return float64(st.Counters.ParsesServed) }),
	perGrammar("ipg_states_expanded_total", obs.TypeCounter,
		"Lazy table states expanded by need (the paper's incremental generation).",
		func(st registry.Stats) float64 { return float64(st.Counters.StatesExpanded) }),
	perGrammar("ipg_states_invalidated_total", obs.TypeCounter, "Table states invalidated by grammar modifications.",
		func(st registry.Stats) float64 { return float64(st.Counters.StatesInvalidated) }),
	perGrammar("ipg_action_calls_total", obs.TypeCounter,
		"ACTION consultations (Earley items for the table-free backend).",
		func(st registry.Stats) float64 { return float64(st.Counters.ActionCalls) }),
	perGrammar("ipg_rule_updates_total", obs.TypeCounter, "Incremental rule additions and deletions applied.",
		func(st registry.Stats) float64 { return float64(st.RuleUpdates) }),
	perGrammar("ipg_table_states_repaired_total", obs.TypeCounter,
		"Table states spliced in place by incremental repair on rule updates.",
		func(st registry.Stats) float64 { return float64(st.Counters.StatesRepaired) }),
	perGrammar("ipg_table_repair_fallbacks_total", obs.TypeCounter,
		"Rule updates whose table repair declined and regenerated from scratch.",
		func(st registry.Stats) float64 { return float64(st.Counters.RepairFallbacks) }),
	perGrammar("ipg_admission_rejected_total", obs.TypeCounter,
		"Requests refused by the grammar's admission gate (drain, circuit breaker, memory budget, load shedder, "+
			"rate or concurrency limit) or its forest-size limit: parses, batch items, session opens and edits, "+
			"and completion requests.",
		func(st registry.Stats) float64 { return float64(st.AdmissionRejected) }),
	perGrammar("ipg_inflight_parses", obs.TypeGauge, "Parses currently inside the entry.",
		func(st registry.Stats) float64 { return float64(st.Inflight) }),
	perGrammar("ipg_grammar_snapshot_saves_total", obs.TypeCounter, "Table snapshots persisted for the grammar.",
		func(st registry.Stats) float64 { return float64(st.SnapshotSaves) }),
	perGrammar("ipg_grammar_restored_from_snapshot", obs.TypeGauge,
		"1 when the entry resumed its table from a snapshot at registration.",
		func(st registry.Stats) float64 { return boolGauge(st.Restored) }),
	perGrammar("ipg_parse_panics_total", obs.TypeCounter, "Engine panics recovered into structured errors.",
		func(st registry.Stats) float64 { return float64(st.Panics) }),
	perGrammar("ipg_breaker_trips_total", obs.TypeCounter, "Circuit-breaker transitions into the open state.",
		func(st registry.Stats) float64 { return float64(st.Breaker.Trips) }),
	perGrammar("ipg_breaker_rejected_total", obs.TypeCounter,
		"Requests refused while the grammar's circuit breaker was open.",
		func(st registry.Stats) float64 { return float64(st.Breaker.Rejected) }),
	// A one-hot gauge over the three states, so dashboards plot
	// transitions without mapping enum values.
	{"ipg_breaker_state", obs.TypeGauge, []string{"grammar", "engine", "state"},
		"1 for the grammar's current circuit-breaker state (closed, open, half_open).",
		func(f *obs.Family, sc *scrape) {
			for _, st := range sc.stats {
				for _, state := range []string{"closed", "open", "half_open"} {
					f.Sample(boolGauge(st.Breaker.State == state),
						"grammar", st.Name, "engine", st.Engine.String(), "state", state)
				}
			}
		}},
	{"ipg_parses_canceled_total", obs.TypeCounter, []string{"grammar", "engine", "reason"},
		"Parses aborted mid-drive, by cancellation reason.",
		func(f *obs.Family, sc *scrape) {
			for _, st := range sc.stats {
				for r := cancel.Reason(1); r < cancel.NumReasons; r++ { // reason 0 (none) counts no abort
					f.Sample(float64(st.Canceled[r]), "grammar", st.Name, "engine", st.Engine.String(), "reason", r.String())
				}
			}
		}},
	{"ipg_table_states", obs.TypeGauge, []string{"grammar", "engine", "class"},
		"Parse-table states by class (complete, initial, dirty).",
		func(f *obs.Family, sc *scrape) {
			for _, st := range sc.stats {
				for i, n := range [...]int{st.Complete, st.Initial, st.Dirty} {
					f.Sample(float64(n), "grammar", st.Name, "engine", st.Engine.String(),
						"class", [...]string{"complete", "initial", "dirty"}[i])
				}
			}
		}},
	latency("ipg_parse_latency_seconds", "Request latency per grammar (power-of-two buckets).",
		func(st registry.Stats) registry.LatencySnapshot { return st.Latency }),
	latency("ipg_table_repair_seconds",
		"Rule-update latency per grammar: incremental table repairs and fallback regenerations (power-of-two buckets).",
		func(st registry.Stats) registry.LatencySnapshot { return st.RepairLatency }),
	perGrammar("ipg_completions_total", obs.TypeCounter,
		"Completion requests answered (accept-set queries and cursor operations).",
		func(st registry.Stats) float64 { return float64(st.Completions) }),
	latency("ipg_completion_latency_seconds", "Completion request latency per grammar (power-of-two buckets).",
		func(st registry.Stats) registry.LatencySnapshot { return st.CompleteLatency }),

	// The snapshot and resilience families exist even when the
	// subsystem is off, so alert rules can rely on them.
	service("ipg_snapshot_enabled", obs.TypeGauge, "1 when a snapshot store is configured.",
		func(sc *scrape) float64 { return boolGauge(sc.snap.Enabled) }),
	service("ipg_snapshot_saves_total", obs.TypeCounter, "Table snapshots written.",
		func(sc *scrape) float64 { return float64(sc.snap.Saves) }),
	service("ipg_snapshot_restores_total", obs.TypeCounter, "Warm table restores at registration.",
		func(sc *scrape) float64 { return float64(sc.snap.Restores) }),
	service("ipg_snapshot_rejected_total", obs.TypeCounter, "Snapshots rejected as stale (grammar hash mismatch).",
		func(sc *scrape) float64 { return float64(sc.snap.Rejected) }),
	service("ipg_snapshot_errors_total", obs.TypeCounter, "Snapshot read/write failures.",
		func(sc *scrape) float64 { return float64(sc.snap.Errors) }),
	service("ipg_snapshot_retries_total", obs.TypeCounter, "Snapshot save attempts re-tried after a write error.",
		func(sc *scrape) float64 { return float64(sc.snap.Retries) }),
	service("ipg_draining", obs.TypeGauge, "1 while the service is draining (refusing new work before shutdown).",
		func(sc *scrape) float64 { return boolGauge(sc.res.Draining) }),
	service("ipg_drain_rejected_total", obs.TypeCounter, "Requests refused because the service was draining.",
		func(sc *scrape) float64 { return float64(sc.res.DrainRejected) }),
	service("ipg_mem_budget_bytes", obs.TypeGauge, "Configured retained-memory budget (0 = unlimited).",
		func(sc *scrape) float64 { return float64(sc.res.MemBudgetBytes) }),
	service("ipg_mem_usage_bytes", obs.TypeGauge,
		"Estimated retained memory at the last refresh (tables and session charts).",
		func(sc *scrape) float64 { return float64(sc.res.MemUsageBytes) }),
	service("ipg_mem_rejected_total", obs.TypeCounter, "Requests refused because the memory budget was exhausted.",
		func(sc *scrape) float64 { return float64(sc.res.MemRejected) }),
	service("ipg_shed_active", obs.TypeGauge, "1 while the adaptive load shedder is dropping a fraction of requests.",
		func(sc *scrape) float64 { return boolGauge(sc.res.ShedActive) }),
	service("ipg_shed_total", obs.TypeCounter, "Requests dropped by the adaptive load shedder.",
		func(sc *scrape) float64 { return float64(sc.res.Shed) }),
	{"ipg_fault_injections_total", obs.TypeCounter, []string{"site", "kind"},
		"Faults fired by the chaos-testing injection harness, per armed site.",
		func(f *obs.Family, _ *scrape) {
			for _, c := range faultinject.Stats() { // none armed in production
				f.Sample(float64(c.Fired), "site", c.Site, "kind", c.Kind.String())
			}
		}},
},
	leaseFamilies("ipg_sessions", "Document sessions",
		func(sc *scrape) registry.LeaseTotals { return sc.sess.LeaseTotals }),
	[]family{
		service("ipg_session_splices_total", obs.TypeCounter, "Edits applied to session documents.",
			func(sc *scrape) float64 { return float64(sc.sess.Splices) }),
		service("ipg_session_reparses_total", obs.TypeCounter,
			"Session reparses that did chart work (incremental or full).",
			func(sc *scrape) float64 { return float64(sc.sess.Reparses) }),
		service("ipg_session_full_reparses_total", obs.TypeCounter,
			"Session reparses that could not reuse retained state.",
			func(sc *scrape) float64 { return float64(sc.sess.FullReparses) }),
		service("ipg_reparse_sets_reused_total", obs.TypeCounter,
			"Earley item sets reused verbatim across session reparses.",
			func(sc *scrape) float64 { return float64(sc.sess.SetsReused) }),
		service("ipg_reparse_sets_rebuilt_total", obs.TypeCounter,
			"Earley item sets re-expanded by session reparses.",
			func(sc *scrape) float64 { return float64(sc.sess.SetsRebuilt) }),
	},
	leaseFamilies("ipg_completion_cursors", "Completion cursors",
		func(sc *scrape) registry.LeaseTotals { return sc.comp.LeaseTotals }),
	[]family{
		service("ipg_completion_queries_total", obs.TypeCounter,
			"Accept-set queries answered through retained cursors.",
			func(sc *scrape) float64 { return float64(sc.comp.Queries) }),
		service("ipg_completion_feeds_total", obs.TypeCounter, "Tokens fed into retained completion cursors.",
			func(sc *scrape) float64 { return float64(sc.comp.Feeds) }),
		service("ipg_trace_enabled", obs.TypeGauge,
			"1 when parse-lifecycle tracing (sampling or slow capture) is on.",
			func(sc *scrape) float64 { return boolGauge(sc.s.tracer.Enabled()) }),
		service("ipg_trace_started_total", obs.TypeCounter, "Parses considered by the tracer while enabled.",
			func(sc *scrape) float64 { return float64(sc.traces.Started) }),
		service("ipg_trace_sampled_total", obs.TypeCounter, "Spans retained by the 1-in-N sampler.",
			func(sc *scrape) float64 { return float64(sc.traces.Captured) }),
		service("ipg_trace_slow_total", obs.TypeCounter, "Spans retained for crossing the slow-parse threshold.",
			func(sc *scrape) float64 { return float64(sc.traces.Slow) }),
	})

// service declares a family of one unlabeled series.
func service(name string, typ obs.MetricType, help string, value func(*scrape) float64) family {
	return family{name, typ, nil, help, func(f *obs.Family, sc *scrape) { f.Sample(value(sc)) }}
}

// perGrammar declares a family of one series per grammar, labeled by
// grammar and the concrete engine serving it. Every entry appears,
// including at 0, so dashboards see series from the first scrape.
func perGrammar(name string, typ obs.MetricType, help string, value func(registry.Stats) float64) family {
	return family{name, typ, []string{"grammar", "engine"}, help, func(f *obs.Family, sc *scrape) {
		for _, st := range sc.stats {
			f.Sample(value(st), "grammar", st.Name, "engine", st.Engine.String())
		}
	}}
}

// latency declares a per-grammar histogram over one of the entry's
// power-of-two latency histograms, whose last bucket, the overflow,
// maps to +Inf.
func latency(name, help string, hist func(registry.Stats) registry.LatencySnapshot) family {
	bounds := make([]float64, registry.LatencyBuckets-1) // in seconds
	for i := range bounds {
		bounds[i] = float64(registry.LatencyBucketBound(i)) / 1e6
	}
	return family{name, obs.TypeHistogram, []string{"grammar", "engine"}, help, func(f *obs.Family, sc *scrape) {
		for _, st := range sc.stats {
			h := hist(st)
			f.Histogram(bounds, h.Buckets[:len(bounds)], h.Buckets[len(bounds)], float64(h.SumUS)/1e6, h.Count,
				"grammar", st.Name, "engine", st.Engine.String())
		}
	}}
}

// leaseFamilies declares one lease kind's four lifecycle families:
// {prefix}_open, _opened_total, _evicted_total and _closed_total.
func leaseFamilies(prefix, what string, totals func(*scrape) registry.LeaseTotals) []family {
	return []family{
		service(prefix+"_open", obs.TypeGauge, what+" currently open.",
			func(sc *scrape) float64 { return float64(totals(sc).Open) }),
		service(prefix+"_opened_total", obs.TypeCounter, what+" opened.",
			func(sc *scrape) float64 { return float64(totals(sc).Opened) }),
		service(prefix+"_evicted_total", obs.TypeCounter, what+" reclaimed by the idle janitor.",
			func(sc *scrape) float64 { return float64(totals(sc).Evicted) }),
		service(prefix+"_closed_total", obs.TypeCounter,
			what+" closed explicitly, by entry removal/replacement or by a drain.",
			func(sc *scrape) float64 { return float64(totals(sc).Closed) }),
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ---- /v1/trace ----

// SpanInfo is the JSON rendering of one retained parse-lifecycle span.
type SpanInfo struct {
	ID        uint64 `json:"id"`
	RequestID string `json:"request_id,omitempty"`
	Grammar   string `json:"grammar"`
	Engine    string `json:"engine"`
	Start     string `json:"start"`
	TotalUS   int64  `json:"total_us"`
	// Stages breaks the total down by lifecycle stage, in microseconds;
	// stages the parse never entered are omitted. Time between stages
	// (lock waits, scheduling) appears only in the total.
	Stages   map[string]int64 `json:"stages_us,omitempty"`
	Accepted bool             `json:"accepted"`
	Error    string           `json:"error,omitempty"`
	// RepairedStates/RepairFallbacks describe table repairs absorbed by
	// the span (rule-update requests), and the repair_* counts the work
	// they visited (obs.Span); omitted for plain parses.
	RepairedStates    int `json:"repaired_states,omitempty"`
	RepairFallbacks   int `json:"repair_fallbacks,omitempty"`
	RepairScanned     int `json:"repair_scanned,omitempty"`
	RepairPropagated  int `json:"repair_propagated,omitempty"`
	RepairRulesDiffed int `json:"repair_rules_diffed,omitempty"`
	RepairReanalysed  int `json:"repair_reanalysed,omitempty"`
	// Canceled names the cancellation reason when the parse was aborted
	// mid-drive; Panicked marks parses recovered from an engine panic.
	Canceled string `json:"canceled,omitempty"`
	Panicked bool   `json:"panicked,omitempty"`
	// Sampled marks spans the 1-in-N sampler kept; Slow marks
	// slow-threshold outliers. A span can be both.
	Sampled bool `json:"sampled"`
	Slow    bool `json:"slow"`
}

// TraceResponse is the GET /v1/trace (and per-grammar) response.
type TraceResponse struct {
	// Enabled reports whether any capture is on; SampleEvery and
	// SlowThresholdUS echo the tracer configuration.
	Enabled         bool  `json:"enabled"`
	SampleEvery     int   `json:"sample_every,omitempty"`
	SlowThresholdUS int64 `json:"slow_threshold_us,omitempty"`
	// Started/Sampled/Slow are the tracer's lifetime counters.
	Started uint64 `json:"started_total"`
	Sampled uint64 `json:"sampled_total"`
	Slow    uint64 `json:"slow_total"`
	// Spans are the retained spans, newest first.
	Spans []SpanInfo `json:"spans"`
}

func spanInfoOf(sp obs.Span) SpanInfo {
	info := SpanInfo{
		ID:        sp.ID,
		RequestID: sp.RequestID,
		Grammar:   sp.Grammar,
		Engine:    sp.Engine,
		Start:     sp.Start.UTC().Format(time.RFC3339Nano),
		TotalUS:   sp.Total.Microseconds(),
		Accepted:  sp.Accepted,
		Error:     sp.Err,
		Canceled:  sp.Canceled,
		Panicked:  sp.Panicked,
		Sampled:   sp.Sampled,
		Slow:      sp.Slow,

		RepairedStates:    sp.RepairedStates,
		RepairFallbacks:   sp.RepairFallbacks,
		RepairScanned:     sp.RepairScanned,
		RepairPropagated:  sp.RepairPropagated,
		RepairRulesDiffed: sp.RepairRulesDiffed,
		RepairReanalysed:  sp.RepairReanalysed,
	}
	for st, d := range sp.Stages {
		if d > 0 {
			if info.Stages == nil {
				info.Stages = make(map[string]int64, len(sp.Stages))
			}
			info.Stages[obs.Stage(st).String()] = d.Microseconds()
		}
	}
	return info
}

// traceMaxSpans bounds one trace response unless ?max= narrows it.
const traceMaxSpans = 256

func (s *Server) writeTrace(w http.ResponseWriter, r *http.Request, grammar string) {
	max := traceMaxSpans
	if v := r.URL.Query().Get("max"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 && n < traceMaxSpans {
			max = n
		}
	}
	out := TraceResponse{
		Enabled:         s.tracer.Enabled(),
		SampleEvery:     s.tracer.SampleEvery(),
		SlowThresholdUS: s.tracer.SlowThreshold().Microseconds(),
		Spans:           []SpanInfo{},
	}
	ts := s.tracer.Stats()
	out.Started, out.Sampled, out.Slow = ts.Started, ts.Captured, ts.Slow
	for _, sp := range s.tracer.Snapshot(grammar, max) {
		out.Spans = append(out.Spans, spanInfoOf(sp))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.writeTrace(w, r, "")
}

func (s *Server) handleGrammarTrace(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	s.writeTrace(w, r, e.Name())
}
