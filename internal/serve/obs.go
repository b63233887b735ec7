package serve

import (
	"net/http"
	"strconv"
	"time"

	"ipg/internal/cancel"
	"ipg/internal/faultinject"
	"ipg/internal/obs"
	"ipg/internal/registry"
)

// This file is the serve layer's observability surface: the /readyz
// probe, the hand-rolled Prometheus /metrics exposition and the
// /v1/trace span endpoints. All families are gathered on each scrape
// from counters the registry and engines already keep — the exposition
// holds no state of its own.

// ---- readiness ----

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "starting",
			"reason": "grammar preload (including snapshot restores) not complete",
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ready",
		"grammars": s.reg.Len(),
	})
}

// ---- /metrics ----

// latencyBoundsSeconds are the upper bounds of the registry's
// power-of-two latency buckets, in seconds; the last registry bucket is
// the overflow and maps to +Inf.
var latencyBoundsSeconds = func() []float64 {
	bounds := make([]float64, registry.LatencyBuckets-1)
	for i := range bounds {
		bounds[i] = float64(registry.LatencyBucketBound(i)) / 1e6
	}
	return bounds
}()

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)

	// Service-wide families.
	p.Family("ipg_uptime_seconds", obs.TypeGauge,
		"Seconds since the server started.").
		Sample(time.Since(s.start).Seconds())
	p.Family("ipg_grammars", obs.TypeGauge,
		"Registered grammars currently being served.").
		Sample(float64(s.reg.Len()))
	p.Family("ipg_grammars_registered_total", obs.TypeCounter,
		"Successful grammar registrations, including replacements.").
		Sample(float64(s.reg.Registered()))
	p.Family("ipg_http_requests_total", obs.TypeCounter,
		"HTTP requests received.").
		Sample(float64(s.requests.Load()))
	p.Family("ipg_parse_requests_total", obs.TypeCounter,
		"Single-sentence parse requests.").
		Sample(float64(s.parses.Load()))
	p.Family("ipg_batch_sentences_total", obs.TypeCounter,
		"Sentences submitted through batch requests.").
		Sample(float64(s.batchSentences.Load()))
	p.Family("ipg_http_rejected_total", obs.TypeCounter,
		"Requests refused with 429 by admission control (concurrency, forest size or rate limits).").
		Sample(float64(s.rejected429.Load()))

	// Per-grammar families, labeled by grammar and the concrete engine
	// serving it. Every entry appears in every family, including at 0,
	// so dashboards see series from the first scrape.
	entries := s.reg.Entries()
	stats := make([]registry.Stats, 0, len(entries))
	for _, e := range entries {
		stats = append(stats, e.Stats())
	}
	perGrammar := func(name string, typ obs.MetricType, help string, value func(registry.Stats) float64) {
		f := p.Family(name, typ, help)
		for _, st := range stats {
			f.Sample(value(st), "grammar", st.Name, "engine", st.Engine.String())
		}
	}
	perGrammar("ipg_parses_served_total", obs.TypeCounter,
		"Parses served per grammar.",
		func(st registry.Stats) float64 { return float64(st.Counters.ParsesServed) })
	perGrammar("ipg_states_expanded_total", obs.TypeCounter,
		"Lazy table states expanded by need (the paper's incremental generation).",
		func(st registry.Stats) float64 { return float64(st.Counters.StatesExpanded) })
	perGrammar("ipg_states_invalidated_total", obs.TypeCounter,
		"Table states invalidated by grammar modifications.",
		func(st registry.Stats) float64 { return float64(st.Counters.StatesInvalidated) })
	perGrammar("ipg_action_calls_total", obs.TypeCounter,
		"ACTION consultations (Earley items for the table-free backend).",
		func(st registry.Stats) float64 { return float64(st.Counters.ActionCalls) })
	perGrammar("ipg_rule_updates_total", obs.TypeCounter,
		"Incremental rule additions and deletions applied.",
		func(st registry.Stats) float64 { return float64(st.RuleUpdates) })
	perGrammar("ipg_table_states_repaired_total", obs.TypeCounter,
		"Table states spliced in place by incremental repair on rule updates.",
		func(st registry.Stats) float64 { return float64(st.Counters.StatesRepaired) })
	perGrammar("ipg_table_repair_fallbacks_total", obs.TypeCounter,
		"Rule updates whose table repair declined and regenerated from scratch.",
		func(st registry.Stats) float64 { return float64(st.Counters.RepairFallbacks) })
	perGrammar("ipg_engine_reprobes_total", obs.TypeCounter,
		"Full table probes the auto engine ran to reselect its backend (verdicts re-read from repaired tables do not count).",
		func(st registry.Stats) float64 { return float64(st.EngineReprobes) })
	perGrammar("ipg_admission_rejected_total", obs.TypeCounter,
		"Parses refused by the entry's admission control.",
		func(st registry.Stats) float64 { return float64(st.AdmissionRejected) })
	perGrammar("ipg_inflight_parses", obs.TypeGauge,
		"Parses currently inside the entry.",
		func(st registry.Stats) float64 { return float64(st.Inflight) })
	perGrammar("ipg_grammar_snapshot_saves_total", obs.TypeCounter,
		"Table snapshots persisted for the grammar.",
		func(st registry.Stats) float64 { return float64(st.SnapshotSaves) })
	perGrammar("ipg_grammar_restored_from_snapshot", obs.TypeGauge,
		"1 when the entry resumed its table from a snapshot at registration.",
		func(st registry.Stats) float64 {
			if st.Restored {
				return 1
			}
			return 0
		})
	perGrammar("ipg_parse_panics_total", obs.TypeCounter,
		"Engine panics recovered into structured errors.",
		func(st registry.Stats) float64 { return float64(st.Panics) })
	perGrammar("ipg_breaker_trips_total", obs.TypeCounter,
		"Circuit-breaker transitions into the open state.",
		func(st registry.Stats) float64 { return float64(st.Breaker.Trips) })
	perGrammar("ipg_breaker_rejected_total", obs.TypeCounter,
		"Requests refused while the grammar's circuit breaker was open.",
		func(st registry.Stats) float64 { return float64(st.Breaker.Rejected) })

	// Breaker state as a one-hot gauge over the three states, so
	// dashboards can plot transitions without mapping enum values.
	brkState := p.Family("ipg_breaker_state", obs.TypeGauge,
		"1 for the grammar's current circuit-breaker state (closed, open, half_open).")
	for _, st := range stats {
		for _, state := range []string{"closed", "open", "half_open"} {
			v := 0.0
			if st.Breaker.State == state {
				v = 1
			}
			brkState.Sample(v, "grammar", st.Name, "engine", st.Engine.String(), "state", state)
		}
	}

	// Cancellations by reason. Reason 0 ("none") is skipped: it never
	// counts a completed abort.
	canceled := p.Family("ipg_parses_canceled_total", obs.TypeCounter,
		"Parses aborted mid-drive, by cancellation reason.")
	for _, st := range stats {
		for reason := 1; reason < int(cancel.NumReasons); reason++ {
			canceled.Sample(float64(st.Canceled[reason]),
				"grammar", st.Name, "engine", st.Engine.String(),
				"reason", cancel.Reason(reason).String())
		}
	}

	states := p.Family("ipg_table_states", obs.TypeGauge,
		"Parse-table states by class (complete, initial, dirty).")
	for _, st := range stats {
		labels := func(class string) []string {
			return []string{"grammar", st.Name, "engine", st.Engine.String(), "class", class}
		}
		states.Sample(float64(st.Complete), labels("complete")...)
		states.Sample(float64(st.Initial), labels("initial")...)
		states.Sample(float64(st.Dirty), labels("dirty")...)
	}

	lat := p.Family("ipg_parse_latency_seconds", obs.TypeHistogram,
		"Request latency per grammar (power-of-two buckets).")
	for _, st := range stats {
		h := st.Latency
		lat.Histogram(latencyBoundsSeconds, h.Buckets[:len(latencyBoundsSeconds)],
			h.Buckets[registry.LatencyBuckets-1], float64(h.SumUS)/1e6, h.Count,
			"grammar", st.Name, "engine", st.Engine.String())
	}

	repairLat := p.Family("ipg_table_repair_seconds", obs.TypeHistogram,
		"Rule-update latency per grammar: incremental table repairs and fallback regenerations (power-of-two buckets).")
	for _, st := range stats {
		h := st.RepairLatency
		repairLat.Histogram(latencyBoundsSeconds, h.Buckets[:len(latencyBoundsSeconds)],
			h.Buckets[registry.LatencyBuckets-1], float64(h.SumUS)/1e6, h.Count,
			"grammar", st.Name, "engine", st.Engine.String())
	}

	perGrammar("ipg_completions_total", obs.TypeCounter,
		"Completion requests answered (accept-set queries and cursor operations).",
		func(st registry.Stats) float64 { return float64(st.Completions) })
	completeLat := p.Family("ipg_completion_latency_seconds", obs.TypeHistogram,
		"Completion request latency per grammar (power-of-two buckets).")
	for _, st := range stats {
		h := st.CompleteLatency
		completeLat.Histogram(latencyBoundsSeconds, h.Buckets[:len(latencyBoundsSeconds)],
			h.Buckets[registry.LatencyBuckets-1], float64(h.SumUS)/1e6, h.Count,
			"grammar", st.Name, "engine", st.Engine.String())
	}

	// Snapshot subsystem — emitted even when disabled, so scrapers can
	// rely on the families existing.
	snap := s.reg.SnapshotStats()
	p.Family("ipg_snapshot_enabled", obs.TypeGauge,
		"1 when a snapshot store is configured.").
		Sample(boolGauge(snap.Enabled))
	p.Family("ipg_snapshot_saves_total", obs.TypeCounter,
		"Table snapshots written.").Sample(float64(snap.Saves))
	p.Family("ipg_snapshot_restores_total", obs.TypeCounter,
		"Warm table restores at registration.").Sample(float64(snap.Restores))
	p.Family("ipg_snapshot_rejected_total", obs.TypeCounter,
		"Snapshots rejected as stale (grammar hash mismatch).").Sample(float64(snap.Rejected))
	p.Family("ipg_snapshot_errors_total", obs.TypeCounter,
		"Snapshot read/write failures.").Sample(float64(snap.Errors))
	p.Family("ipg_snapshot_retries_total", obs.TypeCounter,
		"Snapshot save attempts re-tried after a write error.").Sample(float64(snap.Retries))

	// Resilience subsystem: drain, memory budget, load shedder. Emitted
	// even at rest so alert rules can rely on the families existing.
	res := s.reg.Resilience()
	p.Family("ipg_draining", obs.TypeGauge,
		"1 while the service is draining (refusing new work before shutdown).").
		Sample(boolGauge(res.Draining))
	p.Family("ipg_drain_rejected_total", obs.TypeCounter,
		"Requests refused because the service was draining.").
		Sample(float64(res.DrainRejected))
	p.Family("ipg_mem_budget_bytes", obs.TypeGauge,
		"Configured retained-memory budget (0 = unlimited).").
		Sample(float64(res.MemBudgetBytes))
	p.Family("ipg_mem_usage_bytes", obs.TypeGauge,
		"Estimated retained memory at the last refresh (tables and session charts).").
		Sample(float64(res.MemUsageBytes))
	p.Family("ipg_mem_rejected_total", obs.TypeCounter,
		"Requests refused because the memory budget was exhausted.").
		Sample(float64(res.MemRejected))
	p.Family("ipg_shed_active", obs.TypeGauge,
		"1 while the adaptive load shedder is dropping a fraction of requests.").
		Sample(boolGauge(res.ShedActive))
	p.Family("ipg_shed_total", obs.TypeCounter,
		"Requests dropped by the adaptive load shedder.").
		Sample(float64(res.Shed))

	// Fault injection: one series per armed site (none in production).
	injected := p.Family("ipg_fault_injections_total", obs.TypeCounter,
		"Faults fired by the chaos-testing injection harness, per armed site.")
	for _, sc := range faultinject.Stats() {
		injected.Sample(float64(sc.Fired), "site", sc.Site, "kind", sc.Kind.String())
	}

	// Leases. Counters include closed leases' tallies, so they stay
	// monotone across idle eviction.
	sess := s.reg.SessionTotals()
	leaseFamilies(p, "ipg_sessions", "Document sessions", sess.LeaseTotals)
	p.Family("ipg_session_splices_total", obs.TypeCounter,
		"Edits applied to session documents.").Sample(float64(sess.Splices))
	p.Family("ipg_session_reparses_total", obs.TypeCounter,
		"Session reparses that did chart work (incremental or full).").Sample(float64(sess.Reparses))
	p.Family("ipg_session_full_reparses_total", obs.TypeCounter,
		"Session reparses that could not reuse retained state.").Sample(float64(sess.FullReparses))
	p.Family("ipg_reparse_sets_reused_total", obs.TypeCounter,
		"Earley item sets reused verbatim across session reparses.").Sample(float64(sess.SetsReused))
	p.Family("ipg_reparse_sets_rebuilt_total", obs.TypeCounter,
		"Earley item sets re-expanded by session reparses.").Sample(float64(sess.SetsRebuilt))
	comp := s.reg.CompletionTotals()
	leaseFamilies(p, "ipg_completion_cursors", "Completion cursors", comp.LeaseTotals)
	p.Family("ipg_completion_queries_total", obs.TypeCounter,
		"Accept-set queries answered through retained cursors.").Sample(float64(comp.Queries))
	p.Family("ipg_completion_feeds_total", obs.TypeCounter,
		"Tokens fed into retained completion cursors.").Sample(float64(comp.Feeds))

	// Trace subsystem.
	ts := s.tracer.Stats()
	p.Family("ipg_trace_enabled", obs.TypeGauge,
		"1 when parse-lifecycle tracing (sampling or slow capture) is on.").
		Sample(boolGauge(s.tracer.Enabled()))
	p.Family("ipg_trace_started_total", obs.TypeCounter,
		"Parses considered by the tracer while enabled.").Sample(float64(ts.Started))
	p.Family("ipg_trace_sampled_total", obs.TypeCounter,
		"Spans retained by the 1-in-N sampler.").Sample(float64(ts.Captured))
	p.Family("ipg_trace_slow_total", obs.TypeCounter,
		"Spans retained for crossing the slow-parse threshold.").Sample(float64(ts.Slow))

	if err := p.Flush(); err != nil {
		s.log().Warn("metrics exposition failed", "err", err)
	}
}

// leaseFamilies emits one lease kind's four lifecycle families:
// {prefix}_open, _opened_total, _evicted_total and _closed_total.
func leaseFamilies(p *obs.PromWriter, prefix, what string, t registry.LeaseTotals) {
	p.Family(prefix+"_open", obs.TypeGauge, what+" currently open.").Sample(float64(t.Open))
	p.Family(prefix+"_opened_total", obs.TypeCounter, what+" opened.").Sample(float64(t.Opened))
	p.Family(prefix+"_evicted_total", obs.TypeCounter,
		what+" reclaimed by the idle janitor.").Sample(float64(t.Evicted))
	p.Family(prefix+"_closed_total", obs.TypeCounter,
		what+" closed explicitly, by entry removal/replacement or by a drain.").Sample(float64(t.Closed))
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
