package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"ipg/internal/faultinject"
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

// debugSink is a log handler that takes every level and drops it.
type debugSink struct{}

func (debugSink) Enabled(context.Context, slog.Level) bool  { return true }
func (debugSink) Handle(context.Context, slog.Record) error { return nil }
func (h debugSink) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h debugSink) WithGroup(string) slog.Handler           { return h }

// TestRequestLogFreeAboveDebug: the per-request debug line costs no
// allocation when the log floor is above debug. Its arguments are
// built only behind the level check, so a request allocates less with
// the floor at info than with a debug handler that drops the line.
func TestRequestLogFreeAboveDebug(t *testing.T) {
	allocs := func(l *slog.Logger, method, path, body string) float64 {
		s := New(nil)
		s.SetLogger(l)
		s.MarkReady()
		mustPut(t, s, "bool", obsBoolSrc)
		h := s.Handler()
		return testing.AllocsPerRun(100, func() {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, path, strings.NewReader(body)))
		})
	}
	info := obs.NewLogger(io.Discard, slog.LevelInfo, false)
	for _, c := range []struct{ method, path, body string }{
		{"GET", "/readyz", ""},
		{"POST", "/v1/grammars/bool/parse", `{"input":"true or false"}`},
	} {
		above, debug := allocs(info, c.method, c.path, c.body), allocs(slog.New(debugSink{}), c.method, c.path, c.body)
		if above >= debug {
			t.Errorf("%s %s: %.0f allocs with the floor at info, %.0f with debug on; the debug line's arguments are built regardless",
				c.method, c.path, above, debug)
		}
	}
}

// TestMetricsExposition boots a server, serves traffic, and checks the
// /metrics exposition against the families table: the scraped families
// are exactly the declared ones, each with its declared type, every
// sample carries its family's declared label names (plus le on
// histogram buckets), and the histogram series are cumulative.
func TestMetricsExposition(t *testing.T) {
	s := New(nil)
	s.SetTracer(obs.NewTracer(obs.TracerConfig{SampleEvery: 1}))
	// An armed site that never fires gives the fault family a series.
	faultinject.Set("test.unfired", faultinject.Fault{Kind: faultinject.Error})
	defer faultinject.Reset()
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

	declared := map[string]family{}
	for _, f := range families {
		if _, dup := declared[f.name]; dup {
			t.Errorf("family %s declared twice", f.name)
		}
		declared[f.name] = f
	}
	scraped := map[string]string{} // family name -> scraped type
	samples := map[string]int{}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			scraped[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, labels := parseSample(t, line)
		f, ok := declared[name]
		want := f.labels
		if base, suffix, cut := cutHistogramSuffix(name); !ok && cut && declared[base].typ == obs.TypeHistogram {
			f, ok = declared[base], true
			want = f.labels
			if suffix == "_bucket" {
				want = append(slices.Clip(want), "le")
			}
		}
		if !ok {
			t.Errorf("sample of an undeclared family: %s", line)
			continue
		}
		samples[f.name]++
		if !slices.Equal(labels, want) {
			t.Errorf("%s: labels %v, want %v", line, labels, want)
		}
	}
	for name, f := range declared {
		switch typ, ok := scraped[name]; {
		case !ok:
			t.Errorf("declared family %s not exposed", name)
		case typ != string(f.typ):
			t.Errorf("family %s exposed as %s, declared %s", name, typ, f.typ)
		case samples[name] == 0:
			t.Errorf("family %s has no series", name)
		}
	}
	for name := range scraped {
		if _, ok := declared[name]; !ok {
			t.Errorf("exposed family %s is not declared", name)
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

// parseSample splits an exposition sample line into its series name and
// label names.
func parseSample(t *testing.T, line string) (name string, labels []string) {
	t.Helper()
	end := strings.IndexAny(line, "{ ")
	if end < 0 {
		t.Fatalf("malformed sample %q", line)
	}
	name, rest := line[:end], line[end:]
	for strings.HasPrefix(rest, "{") || strings.HasPrefix(rest, ",") {
		label, value, ok := strings.Cut(rest[1:], `="`)
		if !ok {
			t.Fatalf("malformed labels in %q", line)
		}
		labels = append(labels, label)
		for i := 0; ; i++ { // skip the escaped value to its closing quote
			if i == len(value) {
				t.Fatalf("unterminated label value in %q", line)
			}
			if value[i] == '\\' {
				i++
			} else if value[i] == '"' {
				rest = value[i+1:]
				break
			}
		}
	}
	return name, labels
}

// cutHistogramSuffix splits a histogram series name into its family
// name and its _bucket, _sum or _count suffix.
func cutHistogramSuffix(name string) (base, suffix string, ok bool) {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			return base, suffix, true
		}
	}
	return "", "", false
}

// metricsTable renders the families table as the markdown table of
// docs/API.md's Metrics section.
func metricsTable() string {
	var b strings.Builder
	b.WriteString("| family | type | labels | help |\n| --- | --- | --- | --- |\n")
	for _, f := range families {
		labels := make([]string, len(f.labels))
		for i, l := range f.labels {
			labels[i] = "`" + l + "`"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", f.name, f.typ, strings.Join(labels, ", "), f.help)
	}
	return b.String()
}

// TestMetricsDocs pins docs/API.md's Metrics table to the families
// table, and checks that every ipg_ name the docs and scripts mention
// is a declared family, a histogram's series or a family-name prefix
// (ipg_snapshot_*, {ipg_sessions,…}), so a rename fails here instead of
// leaving stale prose.
func TestMetricsDocs(t *testing.T) {
	api, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(api), "\n## Metrics\n")
	if !ok {
		t.Fatal("docs/API.md has no Metrics section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var table strings.Builder
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "|") {
			table.WriteString(line + "\n")
		}
	}
	if want := metricsTable(); table.String() != want {
		t.Errorf("docs/API.md's Metrics table differs from the families table; replace it with:\n\n%s", want)
	}

	known := func(name string) bool {
		for _, f := range families {
			if strings.HasPrefix(f.name, name) {
				return true
			}
			if base, _, ok := cutHistogramSuffix(name); ok && base == f.name && f.typ == obs.TypeHistogram {
				return true
			}
		}
		return false
	}
	files, err := filepath.Glob("../../scripts/*.sh")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range append(files, "../../README.md", "../../docs/API.md") {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range regexp.MustCompile(`ipg_[a-z0-9_]*`).FindAllString(string(text), -1) {
			if !known(name) {
				t.Errorf("%s names %s, which no declared family matches", filepath.Base(file), name)
			}
		}
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

// TestEntryInfoObservabilityCounters checks the per-entry snapshot
// counter surfaces through the JSON API.
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
}
