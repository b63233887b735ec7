package serve

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ipg/internal/obs"
	"ipg/internal/registry"
	"ipg/internal/snapshot"
)

func doReq(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

const obsBoolSrc = `{"source":"START ::= B\nB ::= \"true\" | \"false\" | B \"or\" B"}`

// TestReadyz pins the readiness contract: 503 until MarkReady, 200
// after — so an orchestrator only routes to instances whose preload
// (including snapshot restores) has published every table. /healthz
// stays 200 throughout: the process is alive either way.
func TestReadyz(t *testing.T) {
	s := New(nil)
	if rec := doReq(t, s, "GET", "/healthz", ""); rec.Code != 200 {
		t.Errorf("healthz before ready: %d", rec.Code)
	}
	if rec := doReq(t, s, "GET", "/readyz", ""); rec.Code != 503 {
		t.Errorf("readyz before MarkReady: %d, want 503", rec.Code)
	}
	s.MarkReady()
	if rec := doReq(t, s, "GET", "/readyz", ""); rec.Code != 200 {
		t.Errorf("readyz after MarkReady: %d, want 200", rec.Code)
	}
}

// TestMetricsExposition boots a server, serves traffic, and checks the
// /metrics exposition: required families present, per-grammar series
// labeled with grammar and engine, histogram series cumulative and
// well-formed.
func TestMetricsExposition(t *testing.T) {
	s := New(nil)
	s.SetTracer(obs.NewTracer(obs.TracerConfig{SampleEvery: 1}))
	if rec := doReq(t, s, "PUT", "/v1/grammars/bools", obsBoolSrc); rec.Code != 201 {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	for i := 0; i < 3; i++ {
		if rec := doReq(t, s, "POST", "/v1/grammars/bools/parse", `{"input":"true or false"}`); rec.Code != 200 {
			t.Fatalf("parse: %d %s", rec.Code, rec.Body)
		}
	}

	rec := doReq(t, s, "GET", "/metrics", "")
	if rec.Code != 200 {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.String()

	// Every required family must be declared with HELP and TYPE.
	for _, fam := range []string{
		"ipg_uptime_seconds", "ipg_grammars", "ipg_http_requests_total",
		"ipg_parse_requests_total", "ipg_http_rejected_total",
		"ipg_parses_served_total", "ipg_states_expanded_total",
		"ipg_states_invalidated_total", "ipg_rule_updates_total",
		"ipg_engine_reprobes_total", "ipg_admission_rejected_total",
		"ipg_inflight_parses", "ipg_table_states",
		"ipg_parse_latency_seconds", "ipg_grammar_snapshot_saves_total",
		"ipg_snapshot_saves_total", "ipg_snapshot_restores_total",
		"ipg_snapshot_rejected_total", "ipg_snapshot_errors_total",
		"ipg_trace_enabled", "ipg_trace_started_total", "ipg_trace_sampled_total",
	} {
		if !strings.Contains(body, "# TYPE "+fam+" ") {
			t.Errorf("family %s missing", fam)
		}
	}

	for _, line := range []string{
		`ipg_parses_served_total{grammar="bools",engine="glr"} 3`,
		`ipg_parse_latency_seconds_count{grammar="bools",engine="glr"} 3`,
		`ipg_trace_enabled 1`,
		`ipg_trace_sampled_total 3`,
		`ipg_snapshot_enabled 0`,
	} {
		if !strings.Contains(body, line+"\n") {
			t.Errorf("missing sample %q", line)
		}
	}

	// The histogram's +Inf bucket must equal its count (cumulative).
	if !strings.Contains(body, `ipg_parse_latency_seconds_bucket{grammar="bools",engine="glr",le="+Inf"} 3`) {
		t.Error("latency histogram +Inf bucket != count")
	}
}

// TestTraceEndpoint drives sampled and slow parses through the HTTP
// front end and reads them back from /v1/trace and the per-grammar
// variant: spans carry grammar, engine, request ID and a stage
// breakdown.
func TestTraceEndpoint(t *testing.T) {
	s := New(nil)
	// Sample everything and treat everything as slow, so both retention
	// paths are exercised by the same requests.
	s.SetTracer(obs.NewTracer(obs.TracerConfig{SampleEvery: 1, SlowThreshold: time.Nanosecond}))
	if rec := doReq(t, s, "PUT", "/v1/grammars/bools", obsBoolSrc); rec.Code != 201 {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	req := httptest.NewRequest("POST", "/v1/grammars/bools/parse", strings.NewReader(`{"input":"true or false","trees":true,"render":true}`))
	req.Header.Set("X-Request-Id", "req-test-1")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("parse: %d %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Request-Id"); got != "req-test-1" {
		t.Errorf("request id not echoed: %q", got)
	}

	var out TraceResponse
	rec2 := doReq(t, s, "GET", "/v1/trace", "")
	if err := json.Unmarshal(rec2.Body.Bytes(), &out); err != nil {
		t.Fatalf("/v1/trace: %v (%s)", err, rec2.Body)
	}
	if !out.Enabled || out.Started == 0 || len(out.Spans) == 0 {
		t.Fatalf("trace response: %+v", out)
	}
	sp := out.Spans[0]
	if sp.Grammar != "bools" || sp.Engine != "glr" {
		t.Errorf("span attribution: %+v", sp)
	}
	if sp.RequestID != "req-test-1" {
		t.Errorf("span request id = %q, want req-test-1", sp.RequestID)
	}
	if !sp.Sampled || !sp.Slow {
		t.Errorf("span retention flags: %+v", sp)
	}
	if !sp.Accepted {
		t.Errorf("span outcome: %+v", sp)
	}
	// The lifecycle must attribute admit, tokenize, table work and
	// render (trees+render were requested, and SampleEvery=1 guarantees
	// the span observed this exact request).
	for _, stage := range []string{"admit", "tokenize", "table"} {
		if _, ok := sp.Stages[stage]; !ok {
			t.Errorf("span stages missing %q: %v", stage, sp.Stages)
		}
	}

	// The per-grammar endpoint filters.
	var byGrammar TraceResponse
	rec3 := doReq(t, s, "GET", "/v1/grammars/bools/trace", "")
	if err := json.Unmarshal(rec3.Body.Bytes(), &byGrammar); err != nil {
		t.Fatal(err)
	}
	if len(byGrammar.Spans) == 0 {
		t.Error("per-grammar trace empty")
	}
	for _, sp := range byGrammar.Spans {
		if sp.Grammar != "bools" {
			t.Errorf("foreign span in per-grammar trace: %+v", sp)
		}
	}
	if rec := doReq(t, s, "GET", "/v1/grammars/nosuch/trace", ""); rec.Code != 404 {
		t.Errorf("trace for unknown grammar: %d", rec.Code)
	}
}

// TestRuleUpdateSpanCarriesRepairWork pins that a traced rule update
// explains its cost from its span: the states the repair touched and
// the work it visited, per layer count, rendered by /v1/trace.
func TestRuleUpdateSpanCarriesRepairWork(t *testing.T) {
	s := New(nil)
	s.SetTracer(obs.NewTracer(obs.TracerConfig{SampleEvery: 1}))
	if rec := doReq(t, s, "PUT", "/v1/grammars/calc", `{"source":`+strconv.Quote(calcDetSrc)+`,"engine":"lalr"}`); rec.Code != 201 {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	req := httptest.NewRequest("POST", "/v1/grammars/calc/rules", strings.NewReader(`{"add":"F ::= \"id\""}`))
	req.Header.Set("X-Request-Id", "rules-1")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("rules: %d %s", rec.Code, rec.Body)
	}
	var out TraceResponse
	if err := json.Unmarshal(doReq(t, s, "GET", "/v1/trace", "").Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	for _, sp := range out.Spans {
		if sp.RequestID != "rules-1" {
			continue
		}
		if _, ok := sp.Stages["repair"]; !ok {
			t.Errorf("rule-update span has no repair stage: %+v", sp)
		}
		if sp.RepairedStates == 0 || sp.RepairScanned == 0 || sp.RepairPropagated == 0 ||
			sp.RepairRulesDiffed == 0 || sp.RepairReanalysed == 0 {
			t.Errorf("rule-update span misses repair work: %+v", sp)
		}
		return
	}
	t.Fatalf("no span for the rule update: %+v", out.Spans)
}

// TestTraceDisabledByDefault pins that a server without SetTracer
// serves an empty, well-formed /v1/trace instead of failing.
func TestTraceDisabledByDefault(t *testing.T) {
	s := New(nil)
	var out TraceResponse
	rec := doReq(t, s, "GET", "/v1/trace", "")
	if rec.Code != 200 {
		t.Fatalf("/v1/trace without tracer: %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Enabled || out.Spans == nil || len(out.Spans) != 0 {
		t.Errorf("disabled trace response: %+v", out)
	}
}

// TestLatencyJSONShape is the table-driven pin on latency rendering:
// an entry that has served nothing omits its "latency" key entirely
// (not null), /v1/stats omits "latency_by_engine" entirely, and both
// appear with counts once a request has been served. Consumers key on
// presence, so the shape is part of the API.
func TestLatencyJSONShape(t *testing.T) {
	tests := []struct {
		name       string
		parses     int
		wantEntry  bool // "latency" key present in GET /v1/grammars/{name}
		wantEngine bool // "latency_by_engine" key present in GET /v1/stats
	}{
		{"no requests served", 0, false, false},
		{"one request", 1, true, true},
		{"several requests", 4, true, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := New(nil)
			if rec := doReq(t, s, "PUT", "/v1/grammars/bools", obsBoolSrc); rec.Code != 201 {
				t.Fatalf("register: %d %s", rec.Code, rec.Body)
			}
			for i := 0; i < tt.parses; i++ {
				if rec := doReq(t, s, "POST", "/v1/grammars/bools/parse", `{"input":"true"}`); rec.Code != 200 {
					t.Fatalf("parse: %d %s", rec.Code, rec.Body)
				}
			}

			var entry map[string]json.RawMessage
			rec := doReq(t, s, "GET", "/v1/grammars/bools", "")
			if err := json.Unmarshal(rec.Body.Bytes(), &entry); err != nil {
				t.Fatal(err)
			}
			raw, present := entry["latency"]
			if present != tt.wantEntry {
				t.Errorf("entry latency key present = %v, want %v (%s)", present, tt.wantEntry, rec.Body)
			}
			if present {
				if string(raw) == "null" {
					t.Error("entry latency rendered as null; must be omitted or an object")
				}
				var lat LatencyStats
				if err := json.Unmarshal(raw, &lat); err != nil {
					t.Fatal(err)
				}
				if lat.Count != uint64(tt.parses) {
					t.Errorf("latency count = %d, want %d", lat.Count, tt.parses)
				}
			}

			var stats map[string]json.RawMessage
			rec = doReq(t, s, "GET", "/v1/stats", "")
			if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
				t.Fatal(err)
			}
			raw, present = stats["latency_by_engine"]
			if present != tt.wantEngine {
				t.Errorf("latency_by_engine present = %v, want %v (%s)", present, tt.wantEngine, rec.Body)
			}
			if present && string(raw) == "null" {
				t.Error("latency_by_engine rendered as null; must be omitted or an object")
			}
		})
	}
}

// TestEntryInfoObservabilityCounters checks the new per-entry counters
// surface through the JSON API: snapshot saves and auto-engine
// re-probes.
func TestEntryInfoObservabilityCounters(t *testing.T) {
	store, err := snapshot.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	reg.SetSnapshotStore(store)
	s := New(reg)
	if rec := doReq(t, s, "PUT", "/v1/grammars/bools", obsBoolSrc); rec.Code != 201 {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	if rec := doReq(t, s, "POST", "/v1/grammars/bools/snapshot", ""); rec.Code != 200 {
		t.Fatalf("snapshot: %d %s", rec.Code, rec.Body)
	}
	var info EntryInfo
	rec := doReq(t, s, "GET", "/v1/grammars/bools", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSaves != 1 {
		t.Errorf("snapshot_saves_total = %d, want 1", info.SnapshotSaves)
	}
	if info.EngineReprobes != 0 {
		t.Errorf("engine_reprobes_total = %d for explicit engine, want 0", info.EngineReprobes)
	}
}
